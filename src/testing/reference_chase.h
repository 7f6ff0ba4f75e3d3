#ifndef FRONTIERS_TESTING_REFERENCE_CHASE_H_
#define FRONTIERS_TESTING_REFERENCE_CHASE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "chase/chase.h"
#include "tgd/tgd.h"

namespace frontiers::testing {

/// An independent reference for the semi-oblivious chase, written straight
/// from Definitions 4 and 6 and deliberately slow.  Round `i + 1` fires
/// every trigger `(rho, sigma)` with `sigma` a homomorphism from `rho`'s
/// body into `Ch_i` — found by brute force over every atom of the stage,
/// with no index, delta, memo or columns — and its domain variables ranging
/// over `dom(Ch_i)`.  A Skolem term is a structural tree: the function
/// symbol named by the head's isomorphism type (HeadTypeSignature) and the
/// existential's first-occurrence index, applied to the trees of the
/// head-universal variables.  Nothing is interned, so the reference shares
/// no code with the engine beyond the parsed theory and the vocabulary's
/// names.
///
/// A stage is a map from canonically rendered atoms to the round that first
/// derived them (0 for the database); a Skolem term renders as
/// `signature(arg,...)`.
struct ReferenceStage {
  std::map<std::string, uint32_t> atoms;
  /// Rounds the stage is complete for: `atoms` is exactly `Ch_rounds`.
  uint32_t rounds = 0;
};

/// Runs up to `max_rounds` rounds, stopping early at a fixpoint or before a
/// round that would grow the stage past `max_atoms` (that round is dropped
/// whole, so the result is always a complete stage).
ReferenceStage ReferenceChase(const Vocabulary& vocab, const Theory& theory,
                              const FactSet& db, uint32_t max_rounds,
                              size_t max_atoms);

/// The engine's stage `Ch_rounds` in the reference rendering: the atoms of
/// `result` with depth at most `rounds`.
std::map<std::string, uint32_t> RenderEngineStage(const Vocabulary& vocab,
                                                  const ChaseResult& result,
                                                  uint32_t rounds);

/// Compares a semi-oblivious engine run of `theory` from `db` with the
/// reference on every round both completed, the reference capped at
/// `max_atoms`.  Returns one message per divergence; empty means the stages
/// agree as sets of rendered atoms with depths.
std::vector<std::string> CompareWithReference(const Vocabulary& vocab,
                                              const Theory& theory,
                                              const FactSet& db,
                                              const ChaseResult& result,
                                              size_t max_atoms);

}  // namespace frontiers::testing

#endif  // FRONTIERS_TESTING_REFERENCE_CHASE_H_
