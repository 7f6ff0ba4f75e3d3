#include "hom/matcher.h"

#include <cstdint>
#include <unordered_map>

#include "base/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace frontiers {

bool UnifyAtomWithFact(const Atom& pattern, const Atom& fact,
                       const std::unordered_set<TermId>& mappable,
                       Substitution& sub) {
  if (pattern.predicate != fact.predicate ||
      pattern.args.size() != fact.args.size()) {
    return false;
  }
  // Bindings added by this call, so a mid-atom mismatch can undo them:
  // callers reuse `sub` across unification attempts, and a failed attempt
  // must leave it exactly as it was.
  std::vector<TermId> bound_here;
  auto fail = [&]() {
    for (TermId t : bound_here) sub.erase(t);
    return false;
  };
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    TermId p = pattern.args[i];
    TermId f = fact.args[i];
    auto bound = sub.find(p);
    if (bound != sub.end()) {
      if (bound->second != f) return fail();
      continue;
    }
    if (mappable.count(p) > 0) {
      sub.emplace(p, f);
      bound_here.push_back(p);
    } else if (p != f) {
      return fail();
    }
  }
  return true;
}

namespace {

constexpr uint32_t kNone = UINT32_MAX;

// An array that lives inside its owner up to `N` elements and spills to
// the heap past them: compiling a rule body or a CQ allocates nothing,
// while a structure-sized pattern (cores, structure homomorphisms) pays
// one allocation per array per call.
template <typename T, size_t N>
class InlineArray {
 public:
  explicit InlineArray(size_t n) {
    if (n > N) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  InlineArray(const InlineArray&) = delete;
  InlineArray& operator=(const InlineArray&) = delete;

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  T inline_[N];
  std::vector<T> heap_;
  T* data_ = inline_;
};

constexpr size_t kInlineAtoms = 4;
constexpr size_t kInlineArgs = 24;

// The backtracking search over one compiled pattern.
//
// Compilation turns every pattern argument into a dense variable slot or a
// fixed term, and resolves each atom's segment columns and per-position
// posting maps once.  During the search a slot's binding lives in
// `bindings_` (kNoTerm while unbound).  Matching an atom plans its frame
// once — which positions compare against a known term, which bind a slot,
// which re-check a slot bound earlier in the same atom — in that atom's
// own region of `ops_`, so trying a candidate is a pass over columns and
// undoing the frame resets the slots it bound.
class SlotSearch {
 public:
  SlotSearch(const FactSet& target, const std::vector<Atom>& pattern,
             const std::unordered_set<TermId>& mappable,
             const Substitution& initial)
      : target_(target),
        atom_count_(static_cast<uint32_t>(pattern.size())),
        arg_count_(ArgCount(pattern)),
        atoms_(atom_count_),
        args_(arg_count_),
        ops_(arg_count_),
        slot_vars_(arg_count_),
        bindings_(arg_count_) {
    // A pattern past the inline sizes finds its slots through a map rather
    // than by scanning the slots seen so far.
    const bool large = arg_count_ > kInlineArgs;
    std::unordered_map<TermId, uint32_t> slot_of;
    auto slot_for = [&](TermId t) {
      if (large) {
        auto [it, inserted] = slot_of.emplace(t, slot_count_);
        if (inserted) slot_vars_[slot_count_++] = t;
        return it->second;
      }
      for (uint32_t s = 0; s < slot_count_; ++s) {
        if (slot_vars_[s] == t) return s;
      }
      slot_vars_[slot_count_] = t;
      return slot_count_++;
    };
    uint32_t next_arg = 0;
    for (uint32_t i = 0; i < atom_count_; ++i) {
      const Atom& atom = pattern[i];
      AtomPlan& plan = atoms_[i];
      plan.first_arg = next_arg;
      plan.arity = static_cast<uint32_t>(atom.args.size());
      plan.fixed_pos = kNone;
      plan.done = false;
      // Every candidate comes from an access path of the atom's predicate,
      // so the predicate matches by construction.  An arity that disagrees
      // with the segment's leaves the atom without columns: a dead end.
      const FactSet::PredicateIndex* pidx = target.Predicate(atom.predicate);
      const bool fits =
          pidx != nullptr && pidx->segment.arity() == plan.arity;
      plan.segment = fits ? &pidx->segment : nullptr;
      plan.all_rows = pidx != nullptr ? PostingList(pidx->atom_ids.data(),
                                                    pidx->atom_ids.size())
                                      : PostingList();
      for (uint32_t pos = 0; pos < plan.arity; ++pos) {
        const TermId t = atom.args[pos];
        Arg& arg = args_[next_arg++];
        arg.index = fits ? &pidx->by_position[pos] : nullptr;
        arg.column = fits ? pidx->segment.Column(pos).data() : nullptr;
        auto bound = initial.empty() ? initial.end() : initial.find(t);
        if (bound != initial.end()) {
          arg.slot = kNone;
          arg.term = bound->second;
        } else if (mappable.count(t) > 0) {
          arg.slot = slot_for(t);
          arg.term = kNoTerm;
        } else {
          arg.slot = kNone;
          arg.term = t;  // rigid
        }
        if (arg.slot != kNone) continue;
        // Fixed positions never change their posting list: pick the most
        // selective one now (the first on ties, as the search would).
        PostingList list =
            arg.index != nullptr ? arg.index->Lookup(arg.term) : PostingList();
        if (plan.fixed_pos == kNone || list.size() < plan.fixed_best.size()) {
          plan.fixed_best = list;
          plan.fixed_pos = pos;
        }
      }
      // An atom without candidates under any bindings: the pattern has no
      // match, and the atoms after this one need no compiling.
      if (plan.segment == nullptr || plan.all_rows.empty() ||
          (plan.fixed_pos != kNone && plan.fixed_best.empty())) {
        dead_ = true;
        atom_count_ = i + 1;
        break;
      }
    }
    for (uint32_t s = 0; s < slot_count_; ++s) bindings_[s] = kNoTerm;
  }

  uint32_t slot_count() const { return slot_count_; }
  TermId SlotVar(uint32_t s) const { return slot_vars_[s]; }
  TermId Binding(uint32_t s) const { return bindings_[s]; }

  // Enumerates every complete match; `on_match` returns false to stop.
  // Returns true if the search ran to completion.  Publishes this
  // enumeration's work counters once, at the end.
  template <typename OnMatch>
  bool Run(OnMatch&& on_match) {
    const bool complete = dead_ || Solve(on_match);
    static obs::Counter& enumerations =
        obs::DefaultRegistry().GetCounter("frontiers.hom.enumerations");
    static obs::Counter& candidates =
        obs::DefaultRegistry().GetCounter("frontiers.hom.candidates");
    static obs::Counter& matches =
        obs::DefaultRegistry().GetCounter("frontiers.hom.matches");
    enumerations.Add();
    if (candidates_ > 0) candidates.Add(candidates_);
    if (matches_ > 0) matches.Add(matches_);
    return complete;
  }

  // Adds the distinct projections onto `terms` to `answers` (see
  // Matcher::Project): answer slots are bound first, and each new tuple is
  // then one existence check of the rest.
  void Project(const std::vector<TermId>& terms, AnswerTable& answers) {
    // A term that is no slot projects to itself.
    tuple_ = terms;
    tuple_slots_.assign(terms.size(), kNone);
    for (size_t i = 0; i < terms.size(); ++i) {
      for (uint32_t s = 0; s < slot_count_; ++s) {
        if (slot_vars_[s] == terms[i]) tuple_slots_[i] = s;
      }
    }
    answers_ = &answers;
    Run([] { return false; });  // a complete match ends its check
  }

 private:
  struct Arg {
    uint32_t slot;   // variable slot, or kNone for a fixed term
    TermId term;     // the fixed term
    const FactSet::PositionIndex* index;  // this position's postings
    const TermId* column;                 // this position's column
  };

  struct AtomPlan {
    uint32_t first_arg;  // into args_ and ops_
    uint32_t arity;
    const ColumnarSegment* segment;  // nullptr: the atom cannot match
    PostingList all_rows;    // the predicate's rows, for an unconstrained atom
    PostingList fixed_best;  // most selective fixed position's postings
    uint32_t fixed_pos;      // its position, or kNone
    bool done;
  };

  // One position of a frame's plan.
  enum class OpKind : uint8_t { kCheckTerm, kBind, kCheckSlot };
  struct Op {
    const TermId* column;
    uint32_t operand;  // the term to compare with, or the slot
    OpKind kind;
  };

  static size_t ArgCount(const std::vector<Atom>& pattern) {
    size_t n = 0;
    for (const Atom& atom : pattern) n += atom.args.size();
    return n;
  }

  // Candidate rows (indices into target.atoms()) for `atom` under the
  // current bindings: the posting list of its most selective fixed or
  // bound position (the first such position on ties), or the predicate's
  // whole list when no position is fixed or bound.
  //
  // Concurrency contract with the sharded store (DESIGN.md §5): posting
  // lists and segments are epoch-stable — FactSet only mutates them inside
  // a commit phase, and match workers only read them between commits.
  // Reads therefore take no locks here, at any thread or shard count.
  PostingList CandidatesFor(const AtomPlan& atom) const {
    PostingList best = atom.fixed_best;
    uint32_t best_pos = atom.fixed_pos;
    for (uint32_t pos = 0; pos < atom.arity; ++pos) {
      const Arg& arg = args_[atom.first_arg + pos];
      if (arg.slot == kNone) continue;
      const TermId value = bindings_[arg.slot];
      if (value == kNoTerm) continue;
      PostingList list =
          arg.index != nullptr ? arg.index->Lookup(value) : PostingList();
      if (best_pos == kNone || list.size() < best.size() ||
          (list.size() == best.size() && pos < best_pos)) {
        best = list;
        best_pos = pos;
      }
    }
    return best_pos == kNone ? atom.all_rows : best;
  }

  // True if `atom` holds an answer slot that is still unbound.
  bool BindsAnswer(const AtomPlan& atom) const {
    for (uint32_t s : tuple_slots_) {
      if (s == kNone || bindings_[s] != kNoTerm) continue;
      for (uint32_t a = atom.first_arg; a < atom.first_arg + atom.arity; ++a) {
        if (args_[a].slot == s) return true;
      }
    }
    return false;
  }

  bool AnswersBound() const {
    for (uint32_t s : tuple_slots_) {
      if (s != kNone && bindings_[s] == kNoTerm) return false;
    }
    return true;
  }

  // Returns true to continue enumeration, false to stop early.
  template <typename OnMatch>
  bool Solve(OnMatch& on_match) {
    const bool projecting = answers_ != nullptr && !checking_;
    if (projecting && AnswersBound()) return CheckTuple(on_match);
    // Pick the unmatched atom with the fewest candidates (fail-first);
    // while projecting, only among atoms that bind an answer slot.
    uint32_t best_atom = kNone;
    PostingList best;
    for (uint32_t i = 0; i < atom_count_; ++i) {
      const AtomPlan& atom = atoms_[i];
      if (atom.done || (projecting && !BindsAnswer(atom))) continue;
      PostingList candidates = CandidatesFor(atom);
      if (best_atom == kNone || candidates.size() < best.size()) {
        best = candidates;
        best_atom = i;
        if (best.empty()) break;
      }
    }
    if (best_atom == kNone) {  // all atoms matched
      ++matches_;
      return on_match();
    }
    if (best.empty()) return true;  // dead end, backtrack
    return Branch(atoms_[best_atom], best, on_match);
  }

  // Tries every candidate row for `atom`, recursing on each that fits.
  template <typename OnMatch>
  bool Branch(AtomPlan& atom, PostingList candidates, OnMatch& on_match) {
    // Plan the frame: known terms are compared first (the cheap rejects),
    // then the remaining positions bind or re-check slots in position
    // order, so a slot repeated inside the atom is bound before its
    // re-check.
    Op* ops = &ops_[atom.first_arg];
    uint32_t known = 0;
    for (uint32_t pos = 0; pos < atom.arity; ++pos) {
      const Arg& arg = args_[atom.first_arg + pos];
      const TermId value = arg.slot == kNone ? arg.term : bindings_[arg.slot];
      if (value != kNoTerm) {
        ops[known++] = Op{arg.column, value, OpKind::kCheckTerm};
      }
    }
    uint32_t next = known;
    for (uint32_t pos = 0; pos < atom.arity; ++pos) {
      const Arg& arg = args_[atom.first_arg + pos];
      if (arg.slot == kNone || bindings_[arg.slot] != kNoTerm) continue;
      bool repeat = false;
      for (uint32_t k = known; k < next; ++k) {
        repeat |= ops[k].operand == arg.slot;
      }
      ops[next++] = Op{arg.column, arg.slot,
                       repeat ? OpKind::kCheckSlot : OpKind::kBind};
    }
    atom.done = true;
    bool complete = true;
    for (uint32_t idx : candidates) {
      ++candidates_;
      const uint32_t row = target_.LocalRow(idx);
      bool ok = true;
      for (uint32_t k = 0; k < atom.arity && ok; ++k) {
        const Op& op = ops[k];
        const TermId t = op.column[row];
        switch (op.kind) {
          case OpKind::kCheckTerm:
            ok = t == op.operand;
            break;
          case OpKind::kBind:
            bindings_[op.operand] = t;
            break;
          case OpKind::kCheckSlot:
            ok = t == bindings_[op.operand];
            break;
        }
      }
      if (ok && !Solve(on_match)) {
        complete = false;
        break;
      }
    }
    for (uint32_t k = known; k < atom.arity; ++k) {
      if (ops[k].kind == OpKind::kBind) bindings_[ops[k].operand] = kNoTerm;
    }
    atom.done = false;
    return complete;
  }

  // Every answer slot is bound: record the tuple if the rest of the
  // pattern has a match.  Always continues the enumeration.
  template <typename OnMatch>
  bool CheckTuple(OnMatch& on_match) {
    for (size_t i = 0; i < tuple_.size(); ++i) {
      const uint32_t s = tuple_slots_[i];
      if (s != kNone) tuple_[i] = bindings_[s];
    }
    if (answers_->Contains(tuple_.data())) return true;
    checking_ = true;
    const bool exhausted = Solve(on_match);
    checking_ = false;
    if (!exhausted) answers_->Insert(tuple_.data());
    return true;
  }

  const FactSet& target_;
  uint32_t atom_count_;
  const size_t arg_count_;
  uint32_t slot_count_ = 0;
  bool dead_ = false;  // some atom has no candidates: no match exists
  InlineArray<AtomPlan, kInlineAtoms> atoms_;
  InlineArray<Arg, kInlineArgs> args_;
  InlineArray<Op, kInlineArgs> ops_;
  InlineArray<TermId, kInlineArgs> slot_vars_;
  InlineArray<TermId, kInlineArgs> bindings_;  // by slot; kNoTerm = unbound
  // Work counters, published once per enumeration by Run.
  uint64_t candidates_ = 0;
  uint64_t matches_ = 0;
  // Projection state (Project only): the tuple under construction and the
  // slot of each of its positions (kNone: a term that projects to itself).
  AnswerTable* answers_ = nullptr;
  std::vector<TermId> tuple_;
  std::vector<uint32_t> tuple_slots_;
  bool checking_ = false;
};

}  // namespace

bool Matcher::ForEach(
    const std::vector<Atom>& pattern,
    const std::unordered_set<TermId>& mappable, const Substitution& initial,
    const std::function<bool(const Substitution&)>& callback) const {
  // A disabled span costs one relaxed load.  Per-*match* costs stay
  // uninstrumented — the chase already counts matches per round
  // (ChaseRoundStats::matches).
  obs::Span span("hom.foreach", "hom");
  SlotSearch search(target_, pattern, mappable, initial);
  // The caller-visible substitution is built at the first complete match
  // (`initial` plus one entry per slot) and then only overwritten in
  // place: entries of an unordered_map keep their addresses.
  Substitution sub;
  InlineArray<TermId*, kInlineArgs> entry(search.slot_count());
  bool built = false;
  return search.Run([&] {
    if (!built) {
      sub = initial;
      for (uint32_t s = 0; s < search.slot_count(); ++s) {
        entry[s] = &sub[search.SlotVar(s)];
      }
      built = true;
    }
    for (uint32_t s = 0; s < search.slot_count(); ++s) {
      *entry[s] = search.Binding(s);
    }
    return callback(sub);
  });
}

std::optional<Substitution> Matcher::Find(
    const std::vector<Atom>& pattern,
    const std::unordered_set<TermId>& mappable,
    const Substitution& initial) const {
  obs::Span span("hom.find", "hom");
  SlotSearch search(target_, pattern, mappable, initial);
  std::optional<Substitution> found;
  search.Run([&] {
    found = initial;
    for (uint32_t s = 0; s < search.slot_count(); ++s) {
      found->emplace(search.SlotVar(s), search.Binding(s));
    }
    return false;
  });
  return found;
}

bool Matcher::Exists(const std::vector<Atom>& pattern,
                     const std::unordered_set<TermId>& mappable,
                     const Substitution& initial) const {
  obs::Span span("hom.exists", "hom");
  SlotSearch search(target_, pattern, mappable, initial);
  return !search.Run([] { return false; });
}

void Matcher::Project(const std::vector<Atom>& pattern,
                      const std::unordered_set<TermId>& mappable,
                      const std::vector<TermId>& terms,
                      AnswerTable& answers) const {
  FRONTIERS_CHECK(answers.width() == terms.size(),
                  "answer table width differs from the projected terms");
  obs::Span span("hom.project", "hom");
  // Connected components: union-find over atoms, joining atoms that share
  // a mappable term.
  std::vector<size_t> parent(pattern.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  std::unordered_map<TermId, size_t> first_atom;
  for (size_t i = 0; i < pattern.size(); ++i) {
    for (TermId t : pattern[i].args) {
      if (mappable.count(t) == 0) continue;
      const auto [it, inserted] = first_atom.emplace(t, i);
      if (!inserted) parent[find(i)] = find(it->second);
    }
  }
  std::vector<bool> projected(pattern.size(), false);
  for (TermId t : terms) {
    auto it = first_atom.find(t);
    if (it != first_atom.end()) projected[find(it->second)] = true;
  }
  // A component without projected terms contributes no bindings to a
  // tuple, only the condition that it has a match.
  for (size_t root = 0; root < pattern.size(); ++root) {
    if (find(root) != root || projected[root]) continue;
    std::vector<Atom> component;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (find(i) == root) component.push_back(pattern[i]);
    }
    if (!Exists(component, mappable)) return;
  }
  std::vector<Atom> rest;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (projected[find(i)]) rest.push_back(pattern[i]);
  }
  SlotSearch(target_, rest, mappable, {}).Project(terms, answers);
}

}  // namespace frontiers
