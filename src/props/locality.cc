#include "props/locality.h"

#include "catalog/instances.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace frontiers {

LocalityReport TestLocality(const Vocabulary& vocab, const ChaseEngine& engine,
                            const FactSet& db, uint32_t l,
                            const ChaseOptions& full_options,
                            const ChaseOptions& subset_options) {
  (void)vocab;
  obs::Span span("props.locality_test", "props");
  static obs::Counter& tests =
      obs::DefaultRegistry().GetCounter("frontiers.props.locality_tests");
  static obs::Counter& subset_chases =
      obs::DefaultRegistry().GetCounter("frontiers.props.subset_chases");
  tests.Add();
  LocalityReport report;
  ChaseResult full = engine.Run(db, full_options);
  FactSet reference = full.PrefixAtDepth(full.complete_rounds);
  report.total_atoms = reference.size();

  // Union of the small-subset chases.  Thanks to hash-consed Skolem terms
  // this union is a plain set union of literally comparable atoms.
  FactSet covered;
  for (const FactSet& subset : SubsetsUpToSize(db, l)) {
    ChaseResult sub = engine.Run(subset, subset_options);
    subset_chases.Add();
    covered.InsertAll(sub.facts);
  }
  for (const Atom& atom : reference.ToAtoms()) {
    if (!covered.Contains(atom)) report.uncovered.push_back(atom);
  }
  return report;
}

std::optional<uint32_t> MinimalLocalityConstant(
    const Vocabulary& vocab, const ChaseEngine& engine, const FactSet& db,
    const ChaseOptions& full_options, const ChaseOptions& subset_options) {
  for (uint32_t l = 1; l <= db.size(); ++l) {
    LocalityReport report =
        TestLocality(vocab, engine, db, l, full_options, subset_options);
    if (report.LocalAt()) return l;
  }
  return std::nullopt;
}

}  // namespace frontiers
