#include "testing/differential.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "chase/snapshot.h"
#include "hom/query_ops.h"
#include "rewriting/ucq.h"
#include "testing/reference_chase.h"
#include "tgd/classify.h"
#include "tgd/parser.h"

namespace frontiers::testing {

namespace {

bool SameDerivation(const std::optional<Derivation>& a,
                    const std::optional<Derivation>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->rule_index == b->rule_index && a->parents == b->parents;
}

/// Byte-parity comparison of two chase results over the same vocabulary.
/// Appends one message per differing field to `out`; `label` names the
/// non-reference run (e.g. "threads=4").
void CompareRuns(const std::string& label, const ChaseResult& ref,
                 const ChaseResult& other, std::vector<std::string>* out) {
  if (ref.stop != other.stop) {
    out->push_back(label + ": stop " + ChaseStopName(other.stop) +
                   " != reference " + ChaseStopName(ref.stop));
  }
  if (ref.complete_rounds != other.complete_rounds) {
    out->push_back(label + ": complete_rounds " +
                   std::to_string(other.complete_rounds) + " != reference " +
                   std::to_string(ref.complete_rounds));
  }
  if (ref.facts.ToAtoms() != other.facts.ToAtoms()) {
    out->push_back(label + ": atom sequence differs (sizes " +
                   std::to_string(other.facts.size()) + " vs " +
                   std::to_string(ref.facts.size()) + ")");
  }
  if (ref.depth != other.depth) {
    out->push_back(label + ": per-atom depths differ");
  }
  if (ref.birth_atom != other.birth_atom) {
    out->push_back(label + ": birth atoms differ");
  }
  if (ref.AppliedKeys() != other.AppliedKeys()) {
    out->push_back(label + ": semi-oblivious dedup memo differs");
  }
  if (ref.first_derivation.size() != other.first_derivation.size()) {
    out->push_back(label + ": provenance lengths differ");
  } else {
    for (size_t i = 0; i < ref.first_derivation.size(); ++i) {
      if (!SameDerivation(ref.first_derivation[i],
                          other.first_derivation[i])) {
        out->push_back(label + ": first derivation of atom " +
                       std::to_string(i) + " differs");
        break;
      }
    }
  }
  if (ref.stats.rounds.size() != other.stats.rounds.size()) {
    out->push_back(label + ": round counts differ");
    return;
  }
  for (size_t r = 0; r < ref.stats.rounds.size(); ++r) {
    const ChaseRoundStats& a = ref.stats.rounds[r];
    const ChaseRoundStats& b = other.stats.rounds[r];
    if (a.matches != b.matches || a.staged != b.staged ||
        a.committed != b.committed || a.preempted != b.preempted ||
        a.deduped != b.deduped || a.atoms_inserted != b.atoms_inserted) {
      out->push_back(label + ": round " + std::to_string(r) +
                     " counters differ");
      break;
    }
  }
}

/// All-constant answer tuples of `query` over the chase result `facts` —
/// the certain answers, given that `facts` is a universal model.  (Tuples
/// containing Skolem nulls are satisfied by the model but not certain.)
std::vector<std::vector<TermId>> CertainAnswers(const Vocabulary& vocab,
                                                const ConjunctiveQuery& query,
                                                const FactSet& facts) {
  std::vector<std::vector<TermId>> certain;
  for (std::vector<TermId>& tuple : EvaluateQuery(vocab, query, facts)) {
    bool all_constants = true;
    for (TermId t : tuple) {
      if (!vocab.IsConstant(t)) {
        all_constants = false;
        break;
      }
    }
    if (all_constants) certain.push_back(std::move(tuple));
  }
  return certain;
}

std::string TupleToString(const Vocabulary& vocab,
                          const std::vector<TermId>& tuple) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ",";
    out += vocab.TermToString(tuple[i]);
  }
  out += ")";
  return out;
}

/// First tuple present in `a` but not `b`, rendered; empty if none.
std::string FirstMissing(const Vocabulary& vocab,
                         const std::vector<std::vector<TermId>>& a,
                         const std::vector<std::vector<TermId>>& b) {
  for (const std::vector<TermId>& tuple : a) {
    if (std::find(b.begin(), b.end(), tuple) == b.end()) {
      return TupleToString(vocab, tuple);
    }
  }
  return "";
}

bool IsBlankText(const std::string& text) {
  return text.find_first_not_of(" \t\r\n") == std::string::npos;
}

/// Checks that `render(parse(text))` is a fixpoint of parse-then-render.
/// `reparse_render` re-runs the pipeline on the first rendering in a fresh
/// vocabulary, so this also proves the rendering is parseable at all.
void CheckRoundTrip(const std::string& what, const std::string& rendered,
                    const std::string& rerendered,
                    std::vector<std::string>* out) {
  if (rendered != rerendered) {
    out->push_back(what + " text does not round-trip through the parser");
  }
}

}  // namespace

std::vector<std::string> RunDifferentialChecks(const TortureCase& torture_case,
                                               const TortureOptions& options) {
  std::vector<std::string> divergences;

  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, torture_case.theory_text,
                                      "torture");
  if (!theory.ok()) {
    divergences.push_back("theory parse error: " + theory.message());
    return divergences;
  }
  Result<FactSet> db = ParseFacts(vocab, torture_case.facts_text);
  if (!db.ok()) {
    divergences.push_back("facts parse error: " + db.message());
    return divergences;
  }
  std::optional<ConjunctiveQuery> query;
  if (!IsBlankText(torture_case.query_text)) {
    Result<ConjunctiveQuery> parsed = ParseQuery(vocab,
                                                 torture_case.query_text);
    if (!parsed.ok()) {
      divergences.push_back("query parse error: " + parsed.message());
      return divergences;
    }
    query = std::move(parsed).value();
  }

  // --- 1. Parser round-trip stability ------------------------------------
  {
    const std::string theory_text = TheoryToString(vocab, theory.value());
    Vocabulary fresh;
    Result<Theory> again = ParseTheory(fresh, theory_text, "torture");
    if (!again.ok()) {
      divergences.push_back("rendered theory does not re-parse: " +
                            again.message());
    } else {
      CheckRoundTrip("theory", theory_text,
                     TheoryToString(fresh, again.value()), &divergences);
    }
  }
  {
    const std::string facts_text = FactsToText(vocab, db.value());
    Vocabulary fresh;
    Result<FactSet> again = ParseFacts(fresh, facts_text);
    if (!again.ok()) {
      divergences.push_back("rendered facts do not re-parse: " +
                            again.message());
    } else {
      CheckRoundTrip("facts", facts_text, FactsToText(fresh, again.value()),
                     &divergences);
    }
  }
  if (query.has_value()) {
    const std::string query_text = QueryToString(vocab, *query);
    Vocabulary fresh;
    Result<ConjunctiveQuery> again = ParseQuery(fresh, query_text);
    if (!again.ok()) {
      divergences.push_back("rendered query does not re-parse: " +
                            again.message());
    } else {
      CheckRoundTrip("query", query_text, QueryToString(fresh, again.value()),
                     &divergences);
    }
  }

  ChaseEngine engine(vocab, theory.value());
  ChaseOptions base;
  base.max_rounds = options.max_rounds;
  base.max_atoms = options.max_atoms;
  base.track_provenance = true;
  const ChaseResult reference = engine.Run(db.value(), base);

  // --- 2. Thread parity ---------------------------------------------------
  for (uint32_t threads : options.thread_counts) {
    ChaseOptions threaded = base;
    threaded.threads = threads;
    CompareRuns("threads=" + std::to_string(threads), reference,
                engine.Run(db.value(), threaded), &divergences);
  }

  // --- 3. Snapshot interrupt / encode / decode / resume parity ------------
  if (IsResumableStop(reference.stop) && reference.complete_rounds >= 2) {
    ChaseOptions partial_options = base;
    partial_options.max_rounds = reference.complete_rounds / 2;
    const ChaseResult partial = engine.Run(db.value(), partial_options);
    Result<ChaseSnapshot> snapshot =
        MakeSnapshot(vocab, theory.value(), partial, partial_options);
    if (!snapshot.ok()) {
      divergences.push_back("MakeSnapshot failed: " + snapshot.message());
    } else {
      Result<ChaseSnapshot> decoded =
          DecodeSnapshot(EncodeSnapshot(snapshot.value()));
      if (!decoded.ok()) {
        divergences.push_back("snapshot does not decode: " +
                              decoded.message());
      } else {
        // Fresh-process simulation: rebuild ids from the snapshot, re-parse
        // the theory (pure lookups after the replay), resume, and demand
        // byte parity with the uninterrupted reference run.
        Vocabulary resumed_vocab;
        const Status applied =
            ApplySnapshotVocabulary(decoded.value(), resumed_vocab);
        if (!applied.ok()) {
          divergences.push_back("ApplySnapshotVocabulary failed: " +
                                applied.message());
        } else {
          Result<Theory> resumed_theory =
              ParseTheory(resumed_vocab, torture_case.theory_text, "torture");
          if (!resumed_theory.ok()) {
            divergences.push_back(
                "theory re-parse after vocabulary replay failed: " +
                resumed_theory.message());
          } else {
            ChaseEngine resumed_engine(resumed_vocab, resumed_theory.value());
            CompareRuns("snapshot-resume", reference,
                        resumed_engine.Resume(decoded.value(), base),
                        &divergences);
          }
        }
      }
    }
  }

  // --- 4. Restricted vs. semi-oblivious certain answers -------------------
  ChaseOptions restricted_options = base;
  restricted_options.variant = ChaseVariant::kRestricted;
  const ChaseResult restricted = engine.Run(db.value(), restricted_options);
  if (query.has_value() && reference.Terminated() &&
      restricted.Terminated()) {
    if (query->IsBoolean()) {
      const bool so = HoldsBoolean(vocab, *query, reference.facts);
      const bool re = HoldsBoolean(vocab, *query, restricted.facts);
      if (so != re) {
        divergences.push_back(
            std::string("restricted-vs-skolem: Boolean query ") +
            (re ? "holds" : "fails") + " on restricted chase but " +
            (so ? "holds" : "fails") + " on semi-oblivious chase");
      }
    } else {
      const auto so = CertainAnswers(vocab, *query, reference.facts);
      const auto re = CertainAnswers(vocab, *query, restricted.facts);
      if (so != re) {
        std::string detail = FirstMissing(vocab, so, re);
        if (detail.empty()) detail = FirstMissing(vocab, re, so);
        divergences.push_back(
            "restricted-vs-skolem: certain answers differ, e.g. " + detail);
      }
    }
  }

  // --- 5. Rewriting vs. chase on FUS theories -----------------------------
  // Only meaningful when the rewriting is complete (kConverged), the chase
  // is a finite universal model (terminated), and the engine supports the
  // theory (single-head).  Both the generator and the classes checked here
  // keep constants out of rules, so db-side UCQ evaluation ranges over
  // exactly the constants chase-certain answers can mention.
  bool single_head = true;
  for (const Tgd& rule : theory.value().rules) {
    if (rule.head.size() != 1) single_head = false;
  }
  if (options.check_rewriting && query.has_value() && single_head &&
      reference.Terminated() &&
      (IsLinear(theory.value()) || IsSticky(vocab, theory.value()))) {
    Rewriter rewriter(vocab, theory.value());
    const RewritingResult rewriting =
        rewriter.Rewrite(*query, options.rewriting);
    if (rewriting.status == RewritingStatus::kConverged) {
      Ucq ucq;
      ucq.disjuncts = rewriting.queries;
      ucq.always_true = rewriting.always_true;
      if (query->IsBoolean()) {
        const bool via_chase = HoldsBoolean(vocab, *query, reference.facts);
        const bool via_rewriting = HoldsBoolean(vocab, ucq, db.value());
        if (via_chase != via_rewriting) {
          divergences.push_back(
              std::string("rewriting-vs-chase: Boolean query ") +
              (via_rewriting ? "holds" : "fails") + " via rewriting but " +
              (via_chase ? "holds" : "fails") + " via chase");
        }
      } else {
        const auto via_chase = CertainAnswers(vocab, *query, reference.facts);
        const auto via_rewriting = EvaluateUcq(vocab, ucq, db.value());
        if (via_chase != via_rewriting) {
          std::string detail = FirstMissing(vocab, via_chase, via_rewriting);
          if (detail.empty()) {
            detail = FirstMissing(vocab, via_rewriting, via_chase);
          }
          divergences.push_back(
              "rewriting-vs-chase: answer sets differ, e.g. " + detail);
        }
      }
    }
  }

  // --- 6. Engine vs. the reference semi-oblivious chase -------------------
  // Every stage the engine completed, up to the reference's atom cap (its
  // brute-force search grows with the stage to the body size), must equal
  // the brute-force chase of Definition 6 as a set of rendered atoms with
  // depths.
  constexpr size_t kReferenceAtoms = 1500;
  for (std::string& divergence :
       CompareWithReference(vocab, theory.value(), db.value(), reference,
                            kReferenceAtoms)) {
    divergences.push_back(std::move(divergence));
  }

  return divergences;
}

namespace {

/// Non-blank, non-comment lines of `text` (the units MinimizeCase drops
/// for theories: TheoryToString emits one rule per line).
std::vector<std::string> TheoryUnits(const std::string& text) {
  std::vector<std::string> units;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    const size_t first = line.find_first_not_of(" \t\r");
    if (first != std::string::npos && line[first] != '#') {
      units.push_back(std::move(line));
    }
    start = end + 1;
  }
  return units;
}

/// Splits a facts text into one unit per atom: commas and newlines at
/// paren depth 0 separate atoms (commas inside argument lists do not).
std::vector<std::string> FactUnits(const std::string& text) {
  std::vector<std::string> units;
  std::string current;
  int depth = 0;
  auto flush = [&]() {
    const size_t first = current.find_first_not_of(" \t\r\n");
    if (first != std::string::npos && current[first] != '#') {
      const size_t last = current.find_last_not_of(" \t\r\n");
      units.push_back(current.substr(first, last - first + 1));
    }
    current.clear();
  };
  for (char ch : text) {
    if (ch == '(') ++depth;
    if (ch == ')') --depth;
    if (depth == 0 && (ch == ',' || ch == '\n')) {
      flush();
      continue;
    }
    current += ch;
  }
  flush();
  return units;
}

std::string JoinUnits(const std::vector<std::string>& units,
                      const char* separator) {
  std::string out;
  for (size_t i = 0; i < units.size(); ++i) {
    if (i > 0) out += separator;
    out += units[i];
  }
  out += "\n";
  return out;
}

}  // namespace

TortureCase MinimizeCase(const TortureCase& torture_case,
                         const TortureOptions& options) {
  const auto diverges = [&options](const TortureCase& candidate) {
    return !RunDifferentialChecks(candidate, options).empty();
  };
  if (!diverges(torture_case)) return torture_case;

  TortureCase best = torture_case;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::string> rules = TheoryUnits(best.theory_text);
    for (size_t i = 0; i < rules.size() && rules.size() > 1;) {
      std::vector<std::string> fewer = rules;
      fewer.erase(fewer.begin() + static_cast<ptrdiff_t>(i));
      TortureCase candidate = best;
      candidate.theory_text = JoinUnits(fewer, "\n");
      if (diverges(candidate)) {
        best = std::move(candidate);
        rules = std::move(fewer);
        changed = true;
      } else {
        ++i;
      }
    }
    std::vector<std::string> facts = FactUnits(best.facts_text);
    for (size_t i = 0; i < facts.size() && facts.size() > 1;) {
      std::vector<std::string> fewer = facts;
      fewer.erase(fewer.begin() + static_cast<ptrdiff_t>(i));
      TortureCase candidate = best;
      candidate.facts_text = JoinUnits(fewer, ",\n");
      if (diverges(candidate)) {
        best = std::move(candidate);
        facts = std::move(fewer);
        changed = true;
      } else {
        ++i;
      }
    }
    if (!IsBlankText(best.query_text)) {
      TortureCase candidate = best;
      candidate.query_text.clear();
      if (diverges(candidate)) {
        best = std::move(candidate);
        changed = true;
      }
    }
  }
  return best;
}

std::string ReproToString(const TortureCase& torture_case, uint64_t seed,
                          const std::vector<std::string>& divergences) {
  std::string out = "# frontiers torture repro\n";
  out += "# seed: " + std::to_string(seed) + "\n";
  for (std::string divergence : divergences) {
    std::replace(divergence.begin(), divergence.end(), '\n', ' ');
    out += "# divergence: " + divergence + "\n";
  }
  out += "== theory ==\n";
  out += torture_case.theory_text;
  if (out.back() != '\n') out += "\n";
  out += "== facts ==\n";
  out += torture_case.facts_text;
  if (out.back() != '\n') out += "\n";
  if (!IsBlankText(torture_case.query_text)) {
    out += "== query ==\n";
    out += torture_case.query_text;
    if (out.back() != '\n') out += "\n";
  }
  return out;
}

Result<TortureCase> ParseRepro(std::string_view text) {
  TortureCase out;
  std::string* current = nullptr;
  size_t start = 0;
  size_t line_no = 0;
  // `start < size` (not <=): text ending in '\n' must not yield a phantom
  // empty final line, or every section would grow a trailing newline per
  // round trip.
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    ++line_no;
    start = end + 1;
    if (line.rfind("== ", 0) == 0) {
      if (line == "== theory ==") {
        current = &out.theory_text;
      } else if (line == "== facts ==") {
        current = &out.facts_text;
      } else if (line == "== query ==") {
        current = &out.query_text;
      } else {
        return Status::Error("repro line " + std::to_string(line_no) +
                             ": unknown section '" + std::string(line) + "'");
      }
      continue;
    }
    if (current == nullptr) {
      // Preamble: only comments and blank lines are allowed.
      const size_t first = line.find_first_not_of(" \t\r");
      if (first != std::string_view::npos && line[first] != '#') {
        return Status::Error("repro line " + std::to_string(line_no) +
                             ": content before the first section");
      }
      continue;
    }
    current->append(line);
    current->push_back('\n');
  }
  if (out.theory_text.empty()) {
    return Status::Error("repro has no '== theory ==' section");
  }
  return out;
}

TortureSeedOutcome RunTortureSeed(uint64_t seed,
                                  const TortureOptions& options) {
  TortureSeedOutcome outcome;
  outcome.seed = seed;
  Vocabulary vocab;
  const GeneratedWorkload workload = GenerateWorkload(vocab, seed);
  outcome.theory_class = workload.theory_class;
  TortureCase torture_case;
  torture_case.theory_text = workload.theory_text;
  torture_case.facts_text = workload.facts_text;
  torture_case.query_text = workload.query_text;
  outcome.divergences = RunDifferentialChecks(torture_case, options);
  if (!outcome.divergences.empty()) {
    outcome.repro = MinimizeCase(torture_case, options);
  }
  return outcome;
}

}  // namespace frontiers::testing
