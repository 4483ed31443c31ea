#ifndef RIPPLE_RIPPLE_POLICY_H_
#define RIPPLE_RIPPLE_POLICY_H_

#include <concepts>
#include <cstddef>
#include <vector>

#include "store/local_store.h"
#include "wire/buffer.h"

namespace ripple {

/// The RIPPLE framework's abstract functions (paper, Section 3.1) as a
/// C++20 policy concept. A query type plugs into the generic engine by
/// providing:
///
///   using Query        — the query description (paper's Q);
///   using LocalState   — information collected at a peer (S^L);
///   using GlobalState  — state forwarded along with the query (S^G);
///   using Answer       — what the initiator assembles.
///
/// and the operations below. `Area` is the overlay's region/restriction
/// representation (a Rect for MIDAS/CAN, an arc for Chord); policies are
/// written against any Area offering ForEachRect so that one policy serves
/// every overlay.
///
/// Soundness contracts (what correctness proofs rely on):
///  * IsLinkRelevant must return true whenever the area may contain a tuple
///    that the final answer needs, given the global state.
///  * ComputeGlobalState/MergeLocalStates must never fabricate knowledge:
///    states must remain true statements about already-seen tuples.
template <typename P, typename Area>
concept QueryPolicy = requires(
    const P p, const typename P::Query q, typename P::GlobalState g,
    typename P::LocalState l, std::vector<typename P::LocalState> ls,
    typename P::Answer a, const LocalStore store, const Area area,
    wire::Buffer* buf, wire::Reader* reader, typename P::Query* q_out,
    typename P::LocalState* l_out, typename P::GlobalState* g_out,
    typename P::Answer* a_out) {
  /// The neutral state an initiator starts from (unless the caller supplies
  /// one explicitly, as diversification's div-improve does).
  { p.InitialGlobalState(q) } -> std::same_as<typename P::GlobalState>;

  /// computeLocalState: derive this peer's local state from local tuples
  /// and the received global state.
  { p.ComputeLocalState(store, q, g) } -> std::same_as<typename P::LocalState>;

  /// computeGlobalState: fold the local state into the received global one.
  { p.ComputeGlobalState(q, g, l) } -> std::same_as<typename P::GlobalState>;

  /// updateLocalState: merge remote local states into this peer's own.
  { p.MergeLocalStates(q, &l, ls) } -> std::same_as<void>;

  /// computeLocalAnswer: the local qualifying tuples under the final state.
  { p.ComputeLocalAnswer(store, q, l) } -> std::same_as<typename P::Answer>;

  /// isLinkRelevant: may the (already restriction-intersected) area still
  /// contribute, given the global state?
  { p.IsLinkRelevant(q, g, area) } -> std::same_as<bool>;

  /// comp: prioritization key; larger values are visited first.
  { p.LinkPriority(q, area) } -> std::same_as<double>;

  /// Tuples carried by a state/answer message (communication accounting).
  { p.StateTupleCount(l) } -> std::same_as<size_t>;
  { p.GlobalStateTupleCount(g) } -> std::same_as<size_t>;
  { p.AnswerTupleCount(a) } -> std::same_as<size_t>;

  /// Initiator-side accumulation of per-peer answers, then final extraction.
  { p.MergeAnswer(&a, std::move(a), q) } -> std::same_as<void>;
  { p.FinalizeAnswer(&a, q) } -> std::same_as<void>;

  /// Wire codecs (docs/WIRE.md): the serialized forms of everything a
  /// message can carry. Encoders append to the buffer and cannot fail;
  /// decoders validate, returning false (with the reader failed) on
  /// truncated or corrupted bytes. Decoded values must be semantically
  /// identical to what was encoded — both engines run policies on decoded
  /// messages, and their determinism contract rides on it. EncodeState /
  /// DecodeState must cover the local AND global state types (one
  /// overload when they coincide, as in every in-tree policy).
  /// StateWireSize / AnswerWireSize return the bytes EncodeState /
  /// EncodeAnswer would append, without encoding: the recursive engine
  /// prices frames with them.
  { p.EncodeQuery(q, buf) } -> std::same_as<void>;
  { p.DecodeQuery(reader, q_out) } -> std::same_as<bool>;
  { p.EncodeState(l, buf) } -> std::same_as<void>;
  { p.DecodeState(reader, l_out) } -> std::same_as<bool>;
  { p.EncodeState(g, buf) } -> std::same_as<void>;
  { p.DecodeState(reader, g_out) } -> std::same_as<bool>;
  { p.StateWireSize(l) } -> std::same_as<size_t>;
  { p.StateWireSize(g) } -> std::same_as<size_t>;
  { p.EncodeAnswer(a, buf) } -> std::same_as<void>;
  { p.DecodeAnswer(reader, a_out) } -> std::same_as<bool>;
  { p.AnswerWireSize(a) } -> std::same_as<size_t>;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_POLICY_H_
