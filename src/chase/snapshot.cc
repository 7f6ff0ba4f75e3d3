#include "chase/snapshot.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "base/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace frontiers {

namespace {

constexpr char kMagic[4] = {'F', 'R', 'S', 'N'};
// v2 added the content-mode ledger total (approx_bytes).  v3 keeps the wire
// layout but meters that total over the flat frontier memo and the Skolem
// argument arena, so a v2 total no longer matches what Resume
// reconstructs.  v4 keeps the layout again but meters the fact store with
// postings only for declared positions and with its rows only in the
// columns (no heap Atom per row), so a v3 total no longer matches either.
// Capacity-mode figures (per-round MemTotals, peak_bytes) are deliberately
// absent: they depend on the growth history of the containers, so
// serializing them would break the format's canonicality over logical
// chase state.
// Older snapshots are rejected (the codec has no compatibility promise
// yet; see tests/corpus).
constexpr uint16_t kVersion = 4;

// --- Little-endian encode helpers -----------------------------------------

void PutU8(std::string& out, uint8_t v) { out.push_back(static_cast<char>(v)); }

void PutU16(std::string& out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutDouble(std::string& out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string& out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

void PutDerivation(std::string& out, const Derivation& d) {
  PutU32(out, static_cast<uint32_t>(d.rule_index));
  PutU32(out, static_cast<uint32_t>(d.parents.size()));
  for (uint32_t p : d.parents) PutU32(out, p);
}

// --- Bounds-checked decode helpers ----------------------------------------

// Every read goes through Take(); after the first failure all further reads
// return zero values and the reader stays failed, so decode loops can run to
// completion and report one error at the end without UB on the way.
struct Reader {
  std::string_view data;
  size_t pos = 0;
  bool failed = false;
  std::string error;

  void Fail(std::string message) {
    if (!failed) {
      failed = true;
      error = std::move(message);
    }
  }
  size_t remaining() const { return data.size() - pos; }
  const char* Take(size_t n) {
    if (failed) return nullptr;
    if (remaining() < n) {
      Fail("snapshot truncated at byte " + std::to_string(pos));
      return nullptr;
    }
    const char* p = data.data() + pos;
    pos += n;
    return p;
  }
  uint8_t U8() {
    const char* p = Take(1);
    return p ? static_cast<uint8_t>(*p) : 0;
  }
  uint16_t U16() {
    const char* p = Take(2);
    if (!p) return 0;
    uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v |= static_cast<uint16_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    return v;
  }
  uint32_t U32() {
    const char* p = Take(4);
    if (!p) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    return v;
  }
  uint64_t U64() {
    const char* p = Take(8);
    if (!p) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    return v;
  }
  double Double() {
    uint64_t bits = U64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string String() {
    uint32_t n = U32();
    const char* p = Take(n);
    return p ? std::string(p, n) : std::string();
  }
  // A count field about to drive a loop reading >= `element_bytes` per
  // element.  Rejecting counts larger than the bytes left turns a corrupted
  // count into a decode error instead of a multi-gigabyte allocation.
  uint32_t Count(size_t element_bytes) {
    uint32_t n = U32();
    if (!failed && static_cast<uint64_t>(n) * element_bytes > remaining()) {
      Fail("snapshot count " + std::to_string(n) + " at byte " +
           std::to_string(pos) + " exceeds remaining payload");
      return 0;
    }
    return n;
  }
  Derivation TakeDerivation(uint32_t num_atoms) {
    Derivation d;
    d.rule_index = U32();
    uint32_t np = Count(4);
    d.parents.reserve(np);
    for (uint32_t i = 0; i < np; ++i) {
      uint32_t parent = U32();
      if (!failed && parent >= num_atoms) {
        Fail("snapshot derivation parent " + std::to_string(parent) +
             " out of range");
      }
      d.parents.push_back(parent);
    }
    return d;
  }
};

}  // namespace

uint64_t TheoryFingerprint(const Vocabulary& vocab, const Theory& theory) {
  const std::string text = TheoryToString(vocab, theory);
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Result<ChaseSnapshot> MakeSnapshot(const Vocabulary& vocab,
                                   const Theory& theory,
                                   const ChaseResult& result,
                                   const ChaseOptions& options) {
  obs::Span span("snapshot.make", "snapshot");
  if (!IsResumableStop(result.stop)) {
    return Status::Error(std::string("cannot snapshot a run stopped by '") +
                         ChaseStopName(result.stop) +
                         "': its last round is truncated, so the facts are "
                         "not a chase stage");
  }
  ChaseSnapshot snap;

  snap.predicates.reserve(vocab.NumPredicates());
  for (PredicateId p = 0; p < vocab.NumPredicates(); ++p) {
    snap.predicates.push_back({vocab.PredicateName(p), vocab.PredicateArity(p)});
  }
  snap.skolem_fns.reserve(vocab.NumSkolemFns());
  for (SkolemFnId f = 0; f < vocab.NumSkolemFns(); ++f) {
    snap.skolem_fns.push_back(
        {vocab.SkolemFnSignature(f), vocab.SkolemFnArity(f)});
  }
  snap.terms.reserve(vocab.NumTerms());
  for (TermId t = 0; t < vocab.NumTerms(); ++t) {
    ChaseSnapshot::TermEntry entry;
    entry.kind = vocab.Kind(t);
    if (entry.kind == TermKind::kSkolem) {
      entry.fn = vocab.SkolemFn(t);
      const std::span<const TermId> args = vocab.SkolemArgs(t);
      entry.args.assign(args.begin(), args.end());
    } else {
      entry.name = vocab.TermName(t);
    }
    snap.terms.push_back(std::move(entry));
  }

  snap.atoms = result.facts.ToAtoms();
  snap.depth = result.depth;
  snap.next_round = result.complete_rounds;
  snap.stop = result.stop;
  snap.first_derivation = result.first_derivation;
  snap.all_derivations = result.all_derivations;
  for (TermId t = 0; t < result.birth_atom.size(); ++t) {
    if (result.birth_atom[t] != ChaseResult::kNoAtom) {
      snap.birth_atoms.emplace_back(t, result.birth_atom[t]);
    }
  }
  snap.seen_applications = result.AppliedKeys();
  snap.round_stats = result.stats.rounds;
  snap.total_seconds = result.stats.total_seconds;
  snap.approx_bytes = result.approx_bytes;
  snap.peak_bytes = result.peak_bytes;

  snap.variant = options.variant;
  snap.semi_naive = options.semi_naive;
  snap.track_provenance = options.track_provenance;
  snap.record_all_derivations = options.record_all_derivations;
  snap.has_filter = static_cast<bool>(options.filter);
  snap.theory_name = theory.name;
  snap.theory_fingerprint = TheoryFingerprint(vocab, theory);
  return snap;
}

// The wire format is canonical over the logical chase state: it serializes
// atoms in insertion order plus round stats, never the store's internal
// dedup layout.
std::string EncodeSnapshot(const ChaseSnapshot& snapshot) {
  obs::Span span("snapshot.encode", "snapshot");
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU16(out, kVersion);

  PutU32(out, static_cast<uint32_t>(snapshot.predicates.size()));
  for (const ChaseSnapshot::PredicateEntry& p : snapshot.predicates) {
    PutString(out, p.name);
    PutU32(out, p.arity);
  }
  PutU32(out, static_cast<uint32_t>(snapshot.skolem_fns.size()));
  for (const ChaseSnapshot::SkolemFnEntry& f : snapshot.skolem_fns) {
    PutString(out, f.signature);
    PutU32(out, f.arity);
  }
  PutU32(out, static_cast<uint32_t>(snapshot.terms.size()));
  for (const ChaseSnapshot::TermEntry& t : snapshot.terms) {
    PutU8(out, static_cast<uint8_t>(t.kind));
    if (t.kind == TermKind::kSkolem) {
      PutU32(out, t.fn);
      PutU32(out, static_cast<uint32_t>(t.args.size()));
      for (TermId a : t.args) PutU32(out, a);
    } else {
      PutString(out, t.name);
    }
  }

  PutU32(out, static_cast<uint32_t>(snapshot.atoms.size()));
  for (const Atom& atom : snapshot.atoms) {
    PutU32(out, atom.predicate);
    PutU32(out, static_cast<uint32_t>(atom.args.size()));
    for (TermId a : atom.args) PutU32(out, a);
  }
  for (uint32_t d : snapshot.depth) PutU32(out, d);
  PutU32(out, snapshot.next_round);
  PutU8(out, static_cast<uint8_t>(snapshot.stop));

  PutU8(out, snapshot.first_derivation.empty() ? 0 : 1);
  if (!snapshot.first_derivation.empty()) {
    for (const std::optional<Derivation>& d : snapshot.first_derivation) {
      PutU8(out, d.has_value() ? 1 : 0);
      if (d.has_value()) PutDerivation(out, *d);
    }
  }
  PutU8(out, snapshot.all_derivations.empty() ? 0 : 1);
  if (!snapshot.all_derivations.empty()) {
    for (const std::vector<Derivation>& list : snapshot.all_derivations) {
      PutU32(out, static_cast<uint32_t>(list.size()));
      for (const Derivation& d : list) PutDerivation(out, d);
    }
  }

  PutU32(out, static_cast<uint32_t>(snapshot.birth_atoms.size()));
  for (const auto& [term, atom] : snapshot.birth_atoms) {
    PutU32(out, term);
    PutU32(out, atom);
  }
  PutU32(out, static_cast<uint32_t>(snapshot.seen_applications.size()));
  for (const std::string& key : snapshot.seen_applications) {
    PutString(out, key);
  }
  PutU32(out, static_cast<uint32_t>(snapshot.round_stats.size()));
  for (const ChaseRoundStats& r : snapshot.round_stats) {
    PutU64(out, r.matches);
    PutU64(out, r.staged);
    PutU64(out, r.committed);
    PutU64(out, r.preempted);
    PutU64(out, r.deduped);
    PutU64(out, r.atoms_inserted);
    PutDouble(out, r.match_seconds);
    PutDouble(out, r.commit_seconds);
  }
  PutDouble(out, snapshot.total_seconds);
  PutU64(out, snapshot.approx_bytes);

  PutU8(out, static_cast<uint8_t>(snapshot.variant));
  PutU8(out, snapshot.semi_naive ? 1 : 0);
  PutU8(out, snapshot.track_provenance ? 1 : 0);
  PutU8(out, snapshot.record_all_derivations ? 1 : 0);
  PutU8(out, snapshot.has_filter ? 1 : 0);
  PutString(out, snapshot.theory_name);
  PutU64(out, snapshot.theory_fingerprint);
  obs::DefaultRegistry()
      .GetCounter("frontiers.snapshot.encoded_bytes")
      .Add(out.size());
  // The ledger figures of the encoded run, for operators watching a
  // checkpoint: the serialized (content-mode) total and the in-process
  // capacity peak that the wire format deliberately leaves out.
  obs::DefaultRegistry()
      .GetGauge("frontiers.snapshot.approx_bytes")
      .Set(static_cast<double>(snapshot.approx_bytes));
  obs::DefaultRegistry()
      .GetGauge("frontiers.snapshot.peak_bytes")
      .Set(static_cast<double>(snapshot.peak_bytes));
  return out;
}

Result<ChaseSnapshot> DecodeSnapshot(std::string_view bytes) {
  obs::Span span("snapshot.decode", "snapshot");
  if (FRONTIERS_FAILPOINT("snapshot.decode")) {
    return Status::Error("injected failure at failpoint 'snapshot.decode'");
  }
  obs::DefaultRegistry()
      .GetCounter("frontiers.snapshot.decoded_bytes")
      .Add(bytes.size());
  Reader in;
  in.data = bytes;
  const char* magic = in.Take(sizeof(kMagic));
  if (!magic || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Error("not a chase snapshot (bad magic)");
  }
  const uint16_t version = in.U16();
  if (!in.failed && version != kVersion) {
    return Status::Error("unsupported snapshot version " +
                         std::to_string(version));
  }

  ChaseSnapshot snap;
  const uint32_t num_predicates = in.Count(8);
  snap.predicates.reserve(num_predicates);
  for (uint32_t i = 0; i < num_predicates && !in.failed; ++i) {
    ChaseSnapshot::PredicateEntry p;
    p.name = in.String();
    p.arity = in.U32();
    snap.predicates.push_back(std::move(p));
  }
  const uint32_t num_fns = in.Count(8);
  snap.skolem_fns.reserve(num_fns);
  for (uint32_t i = 0; i < num_fns && !in.failed; ++i) {
    ChaseSnapshot::SkolemFnEntry f;
    f.signature = in.String();
    f.arity = in.U32();
    snap.skolem_fns.push_back(std::move(f));
  }
  const uint32_t num_terms = in.Count(1);
  snap.terms.reserve(num_terms);
  for (uint32_t i = 0; i < num_terms && !in.failed; ++i) {
    ChaseSnapshot::TermEntry t;
    const uint8_t kind = in.U8();
    if (kind > static_cast<uint8_t>(TermKind::kSkolem)) {
      in.Fail("snapshot term " + std::to_string(i) + " has bad kind " +
              std::to_string(kind));
      break;
    }
    t.kind = static_cast<TermKind>(kind);
    if (t.kind == TermKind::kSkolem) {
      t.fn = in.U32();
      if (!in.failed && t.fn >= num_fns) {
        in.Fail("snapshot term " + std::to_string(i) +
                " references unknown skolem function");
        break;
      }
      const uint32_t nargs = in.Count(4);
      // Cross-check the argument count against the function's declared
      // arity: replaying a mismatched application would corrupt the
      // vocabulary's hash-consing invariants.
      if (!in.failed && nargs != snap.skolem_fns[t.fn].arity) {
        in.Fail("snapshot term " + std::to_string(i) + " applies skolem "
                "function of arity " +
                std::to_string(snap.skolem_fns[t.fn].arity) + " to " +
                std::to_string(nargs) + " arguments");
        break;
      }
      t.args.reserve(nargs);
      for (uint32_t a = 0; a < nargs && !in.failed; ++a) {
        const TermId arg = in.U32();
        // Skolem arguments must precede the term so id-order replay works.
        if (!in.failed && arg >= i) {
          in.Fail("snapshot term " + std::to_string(i) +
                  " has forward argument reference");
          break;
        }
        t.args.push_back(arg);
      }
    } else {
      t.name = in.String();
    }
    snap.terms.push_back(std::move(t));
  }

  const uint32_t num_atoms = in.Count(8);
  snap.atoms.reserve(num_atoms);
  for (uint32_t i = 0; i < num_atoms && !in.failed; ++i) {
    Atom atom;
    atom.predicate = in.U32();
    if (!in.failed && atom.predicate >= num_predicates) {
      in.Fail("snapshot atom " + std::to_string(i) +
              " references unknown predicate");
      break;
    }
    const uint32_t nargs = in.Count(4);
    // An atom whose argument count disagrees with its predicate's declared
    // arity would abort deep inside FactSet on resume; reject it here.
    if (!in.failed && nargs != snap.predicates[atom.predicate].arity) {
      in.Fail("snapshot atom " + std::to_string(i) + " has " +
              std::to_string(nargs) + " arguments but predicate '" +
              snap.predicates[atom.predicate].name + "' has arity " +
              std::to_string(snap.predicates[atom.predicate].arity));
      break;
    }
    atom.args.reserve(nargs);
    for (uint32_t a = 0; a < nargs && !in.failed; ++a) {
      const TermId arg = in.U32();
      if (!in.failed && arg >= num_terms) {
        in.Fail("snapshot atom " + std::to_string(i) +
                " references unknown term");
        break;
      }
      atom.args.push_back(arg);
    }
    snap.atoms.push_back(std::move(atom));
  }
  snap.depth.reserve(num_atoms);
  for (uint32_t i = 0; i < num_atoms && !in.failed; ++i) {
    const uint32_t d = in.U32();
    // Atoms are appended in round order, so depths are non-decreasing and
    // never exceed the snapshot's round counter (checked against
    // next_round after it is read, below).
    if (!in.failed && !snap.depth.empty() && d < snap.depth.back()) {
      in.Fail("snapshot depth sequence decreases at atom " +
              std::to_string(i));
      break;
    }
    snap.depth.push_back(d);
  }
  snap.next_round = in.U32();
  if (!in.failed && !snap.depth.empty() &&
      snap.depth.back() > snap.next_round) {
    in.Fail("snapshot atom depth " + std::to_string(snap.depth.back()) +
            " exceeds its round counter " + std::to_string(snap.next_round));
  }
  const uint8_t stop = in.U8();
  if (!in.failed && stop > static_cast<uint8_t>(ChaseStop::kInjectedFault)) {
    in.Fail("snapshot has bad stop reason " + std::to_string(stop));
  }
  snap.stop = static_cast<ChaseStop>(stop);

  if (in.U8() != 0 && !in.failed) {
    snap.first_derivation.reserve(num_atoms);
    for (uint32_t i = 0; i < num_atoms && !in.failed; ++i) {
      if (in.U8() != 0) {
        snap.first_derivation.push_back(in.TakeDerivation(num_atoms));
      } else {
        snap.first_derivation.push_back(std::nullopt);
      }
    }
  }
  if (in.U8() != 0 && !in.failed) {
    snap.all_derivations.reserve(num_atoms);
    for (uint32_t i = 0; i < num_atoms && !in.failed; ++i) {
      const uint32_t n = in.Count(8);
      std::vector<Derivation> list;
      list.reserve(n);
      for (uint32_t d = 0; d < n && !in.failed; ++d) {
        list.push_back(in.TakeDerivation(num_atoms));
      }
      snap.all_derivations.push_back(std::move(list));
    }
  }

  const uint32_t num_births = in.Count(8);
  snap.birth_atoms.reserve(num_births);
  for (uint32_t i = 0; i < num_births && !in.failed; ++i) {
    const TermId term = in.U32();
    const uint32_t atom = in.U32();
    if (!in.failed && (term >= num_terms || atom >= num_atoms)) {
      in.Fail("snapshot birth-atom entry " + std::to_string(i) +
              " out of range");
      break;
    }
    snap.birth_atoms.emplace_back(term, atom);
  }
  const uint32_t num_keys = in.Count(4);
  snap.seen_applications.reserve(num_keys);
  for (uint32_t i = 0; i < num_keys && !in.failed; ++i) {
    std::string key = in.String();
    if (!in.failed && !FrontierMemo::WellFormedKey(key)) {
      in.Fail("snapshot frontier memo key " + std::to_string(i) +
              " is malformed");
      break;
    }
    // Resume interns a row-memo rule's key as a Skolem row, which reads
    // every binding's term.
    if (!in.failed) {
      for (TermId t : FrontierMemo::KeyBindings(key)) {
        if (t >= num_terms) {
          in.Fail("snapshot frontier memo key " + std::to_string(i) +
                  " names an unknown term");
          break;
        }
      }
      if (in.failed) break;
    }
    snap.seen_applications.push_back(std::move(key));
  }
  const uint32_t num_rounds = in.Count(64);
  snap.round_stats.reserve(num_rounds);
  for (uint32_t i = 0; i < num_rounds && !in.failed; ++i) {
    ChaseRoundStats r;
    r.matches = in.U64();
    r.staged = in.U64();
    r.committed = in.U64();
    r.preempted = in.U64();
    r.deduped = in.U64();
    r.atoms_inserted = in.U64();
    r.match_seconds = in.Double();
    r.commit_seconds = in.Double();
    snap.round_stats.push_back(r);
  }
  snap.total_seconds = in.Double();
  snap.approx_bytes = in.U64();

  const uint8_t variant = in.U8();
  if (!in.failed && variant > static_cast<uint8_t>(ChaseVariant::kRestricted)) {
    in.Fail("snapshot has bad chase variant " + std::to_string(variant));
  }
  snap.variant = static_cast<ChaseVariant>(variant);
  snap.semi_naive = in.U8() != 0;
  snap.track_provenance = in.U8() != 0;
  snap.record_all_derivations = in.U8() != 0;
  snap.has_filter = in.U8() != 0;
  snap.theory_name = in.String();
  snap.theory_fingerprint = in.U64();

  if (in.failed) return Status::Error(in.error);
  if (in.remaining() != 0) {
    return Status::Error("snapshot has " + std::to_string(in.remaining()) +
                         " trailing bytes");
  }
  if (snap.depth.size() != snap.atoms.size()) {
    return Status::Error("snapshot depth/atom size mismatch");
  }
  return snap;
}

namespace {

// The vocabulary interns Skolem terms a row at a time, so a term list
// replays only as whole rows: the new Skolem term `first` must open a row
// of its function's block, followed by the rest of the block's functions
// in order, over identical arguments.
Status CheckWholeSkolemRow(const ChaseSnapshot& snapshot, uint32_t first,
                           const Vocabulary& vocab) {
  const ChaseSnapshot::TermEntry& entry = snapshot.terms[first];
  const uint32_t block = vocab.SkolemFnBlock(entry.fn);
  const uint32_t size = vocab.SkolemBlockSize(block);
  const auto broken = [&](const std::string& why) {
    return Status::Error("snapshot skolem term " + std::to_string(first) +
                         " does not start a whole row of its block (" +
                         std::to_string(size) + " nulls): " + why);
  };
  if (entry.fn != vocab.SkolemBlockFn(block, 0)) {
    return broken("its function is not the block's first");
  }
  if (snapshot.terms.size() - first < size) {
    return broken("the term list ends inside the row");
  }
  for (uint32_t j = 1; j < size; ++j) {
    const ChaseSnapshot::TermEntry& next = snapshot.terms[first + j];
    if (next.kind != TermKind::kSkolem ||
        next.fn != vocab.SkolemBlockFn(block, j) || next.args != entry.args) {
      return broken("term " + std::to_string(first + j) +
                    " is not the row's null " + std::to_string(j));
    }
  }
  return Status::Ok();
}

}  // namespace

Status ApplySnapshotVocabulary(const ChaseSnapshot& snapshot,
                               Vocabulary& vocab) {
  for (uint32_t i = 0; i < snapshot.predicates.size(); ++i) {
    const ChaseSnapshot::PredicateEntry& entry = snapshot.predicates[i];
    std::optional<PredicateId> existing = vocab.FindPredicate(entry.name);
    if (existing.has_value()) {
      if (*existing != i) {
        return Status::Error("vocabulary diverges from snapshot: predicate '" +
                             entry.name + "' interned at id " +
                             std::to_string(*existing) + ", snapshot expects " +
                             std::to_string(i));
      }
      if (vocab.PredicateArity(*existing) != entry.arity) {
        return Status::Error("vocabulary diverges from snapshot: predicate '" +
                             entry.name + "' has arity " +
                             std::to_string(vocab.PredicateArity(*existing)) +
                             ", snapshot expects " +
                             std::to_string(entry.arity));
      }
      continue;
    }
    if (vocab.NumPredicates() != i) {
      return Status::Error(
          "vocabulary diverges from snapshot: predicate slot " +
          std::to_string(i) + " is occupied by '" + vocab.PredicateName(i) +
          "', snapshot expects '" + entry.name + "'");
    }
    vocab.AddPredicate(entry.name, entry.arity);
  }

  // Skolem functions have no non-interning lookup, so index the existing
  // ones first; a signature interned at the wrong id (or with the wrong
  // arity) is a divergence error, not an abort.
  std::unordered_map<std::string, SkolemFnId> existing_fns;
  for (SkolemFnId f = 0; f < vocab.NumSkolemFns(); ++f) {
    existing_fns.emplace(vocab.SkolemFnSignature(f), f);
  }
  for (uint32_t i = 0; i < snapshot.skolem_fns.size(); ++i) {
    const ChaseSnapshot::SkolemFnEntry& entry = snapshot.skolem_fns[i];
    auto it = existing_fns.find(entry.signature);
    if (it != existing_fns.end()) {
      if (it->second != i || vocab.SkolemFnArity(it->second) != entry.arity) {
        return Status::Error(
            "vocabulary diverges from snapshot: skolem function '" +
            entry.signature + "' does not match snapshot slot " +
            std::to_string(i));
      }
      continue;
    }
    if (vocab.NumSkolemFns() != i) {
      return Status::Error(
          "vocabulary diverges from snapshot: skolem function slot " +
          std::to_string(i) + " is occupied, snapshot expects '" +
          entry.signature + "'");
    }
    if (vocab.SkolemFunctionJoinsUsedBlock(entry.signature, entry.arity)) {
      return Status::Error("vocabulary diverges from snapshot: skolem "
                           "function '" + entry.signature +
                           "' would join a block that already has rows");
    }
    vocab.SkolemFunction(entry.signature, entry.arity);
  }

  for (uint32_t i = 0; i < snapshot.terms.size(); ++i) {
    const ChaseSnapshot::TermEntry& entry = snapshot.terms[i];
    if (i < vocab.NumTerms()) {
      if (vocab.Kind(i) != entry.kind) {
        return Status::Error("vocabulary diverges from snapshot: term " +
                             std::to_string(i) + " has a different kind");
      }
      if (entry.kind == TermKind::kSkolem) {
        if (vocab.SkolemFn(i) != entry.fn ||
            !std::ranges::equal(vocab.SkolemArgs(i), entry.args)) {
          return Status::Error("vocabulary diverges from snapshot: skolem "
                               "term " + std::to_string(i) +
                               " has different structure");
        }
      } else if (vocab.TermName(i) != entry.name) {
        return Status::Error("vocabulary diverges from snapshot: term " +
                             std::to_string(i) + " is named '" +
                             vocab.TermName(i) + "', snapshot expects '" +
                             entry.name + "'");
      }
      continue;
    }
    TermId id = kNoTerm;
    switch (entry.kind) {
      case TermKind::kConstant:
        id = vocab.Constant(entry.name);
        break;
      case TermKind::kVariable:
        id = vocab.Variable(entry.name);
        break;
      case TermKind::kSkolem: {
        if (entry.fn >= vocab.NumSkolemFns()) {
          return Status::Error("snapshot term " + std::to_string(i) +
                               " references unknown skolem function");
        }
        if (entry.args.size() != vocab.SkolemFnArity(entry.fn)) {
          return Status::Error("snapshot term " + std::to_string(i) +
                               " has wrong skolem arity");
        }
        const Status row = CheckWholeSkolemRow(snapshot, i, vocab);
        if (!row.ok()) return row;
        id = vocab.SkolemTerm(entry.fn, entry.args);
        break;
      }
    }
    if (id != i) {
      // The name/structure was already interned at a different id; dense
      // replay cannot reproduce the snapshot's ids in this vocabulary.
      return Status::Error("vocabulary diverges from snapshot: replaying "
                           "term " + std::to_string(i) + " produced id " +
                           std::to_string(id));
    }
  }
  return Status::Ok();
}

Status WriteSnapshotFile(const std::string& path,
                         const ChaseSnapshot& snapshot) {
  // EncodeSnapshot itself is infallible (pure serialization), so its
  // injected fault surfaces here, where a Status can carry it.
  if (FRONTIERS_FAILPOINT("snapshot.encode")) {
    return Status::Error("injected failure at failpoint 'snapshot.encode'");
  }
  const std::string bytes = EncodeSnapshot(snapshot);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || FRONTIERS_FAILPOINT("snapshot.write_open")) {
    return Status::Error("cannot open '" + path + "' for writing");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out || FRONTIERS_FAILPOINT("snapshot.write_io")) {
    return Status::Error("failed writing snapshot to '" + path + "'");
  }
  return Status::Ok();
}

Result<ChaseSnapshot> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in || FRONTIERS_FAILPOINT("snapshot.read_open")) {
    return Status::Error("cannot open snapshot file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if ((!in.good() && !in.eof()) || FRONTIERS_FAILPOINT("snapshot.read_io")) {
    return Status::Error("failed reading snapshot file '" + path + "'");
  }
  return DecodeSnapshot(buffer.str());
}

}  // namespace frontiers
