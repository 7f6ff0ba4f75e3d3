#include "hom/matcher.h"

#include <cassert>
#include <cstdint>
#include <unordered_map>

#include "base/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace frontiers {

namespace {

using match_internal::InlineArray;
using match_internal::kInlineArgs;

size_t ArgCount(const std::vector<Atom>& pattern) {
  size_t n = 0;
  for (const Atom& atom : pattern) n += atom.args.size();
  return n;
}

}  // namespace

MatchPlan::MatchPlan(const FactSet& target, const std::vector<Atom>& pattern,
                     const std::unordered_set<TermId>& mappable,
                     const Substitution& initial)
    : target_(target),
      atom_count_(static_cast<uint32_t>(pattern.size())),
      arg_count_(ArgCount(pattern)),
      atoms_(atom_count_),
      args_(arg_count_),
      ops_(arg_count_),
      slot_vars_(arg_count_),
      bindings_(arg_count_),
      slot_indexed_(arg_count_) {
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
  // By slot: the atom it first occurs in, or kNoSlot once a second atom
  // holds it too (the search can then probe its positions bound).
  InlineArray<uint32_t, kInlineArgs> slot_atom(arg_count_);
  uint32_t next_arg = 0;
  for (uint32_t i = 0; i < atom_count_; ++i) {
    const Atom& atom = pattern[i];
    AtomPlan& plan = atoms_[i];
    plan.first_arg = next_arg;
    plan.arity = static_cast<uint32_t>(atom.args.size());
    plan.fixed_pos = kNoSlot;
    plan.matched = kNoSlot;
    plan.seed_binds = 0;
    plan.done = false;
    // Every candidate comes from an access path of the atom's predicate,
    // so the predicate matches by construction.  An arity that disagrees
    // with the segment's leaves the atom without columns: a dead end.
    const FactSet::PredicateIndex* pidx = target.Predicate(atom.predicate);
    const bool fits = pidx != nullptr && pidx->segment.arity() == plan.arity;
    plan.pidx = fits ? pidx : nullptr;
    plan.segment = fits ? &pidx->segment : nullptr;
    plan.all_rows = pidx != nullptr ? PostingList(pidx->atom_ids.data(),
                                                  pidx->atom_ids.size())
                                    : PostingList();
    for (uint32_t pos = 0; pos < plan.arity; ++pos) {
      const TermId t = atom.args[pos];
      Arg& arg = args_[next_arg++];
      arg.index = nullptr;
      arg.column = fits ? pidx->segment.Column(pos).data() : nullptr;
      auto bound = initial.empty() ? initial.end() : initial.find(t);
      if (bound != initial.end()) {
        arg.slot = kNoSlot;
        arg.term = bound->second;
      } else if (mappable.count(t) > 0) {
        const uint32_t fresh = slot_count_;
        arg.slot = slot_for(t);
        arg.term = kNoTerm;
        if (arg.slot == fresh) {
          slot_atom[arg.slot] = i;
        } else if (slot_atom[arg.slot] != i) {
          slot_atom[arg.slot] = kNoSlot;
        }
      } else {
        arg.slot = kNoSlot;
        arg.term = t;  // rigid
      }
      if (arg.slot != kNoSlot) continue;
      // Fixed positions never change their posting list: pick the most
      // selective one now (the first on ties, as the search would).
      if (fits) arg.index = &target.Postings(*pidx, pos);
      PostingList list =
          arg.index != nullptr ? arg.index->Lookup(arg.term) : PostingList();
      if (plan.fixed_pos == kNoSlot || list.size() < plan.fixed_best.size()) {
        plan.fixed_best = list;
        plan.fixed_pos = pos;
      }
    }
    // An atom without candidates under any bindings: the pattern has no
    // match.  The rest still compiles, so every atom can be seeded and
    // every slot numbered.
    if (plan.segment == nullptr || plan.all_rows.empty() ||
        (plan.fixed_pos != kNoSlot && plan.fixed_best.empty())) {
      dead_ = true;
    }
  }
  for (uint32_t s = 0; s < slot_count_; ++s) {
    bindings_[s] = kNoTerm;
    slot_indexed_[s] = slot_atom[s] == kNoSlot;
  }
  // The positions of shared slots; a slot held by one atom only is indexed
  // if `Bind` binds it.
  for (uint32_t i = 0; i < atom_count_; ++i) {
    const AtomPlan& plan = atoms_[i];
    if (plan.pidx == nullptr) continue;
    for (uint32_t pos = 0; pos < plan.arity; ++pos) {
      Arg& arg = args_[plan.first_arg + pos];
      if (arg.slot != kNoSlot && slot_indexed_[arg.slot]) {
        arg.index = &target.Postings(*plan.pidx, pos);
      }
    }
  }
}

void MatchPlan::IndexSlot(uint32_t s) {
  for (uint32_t i = 0; i < atom_count_; ++i) {
    const AtomPlan& atom = atoms_[i];
    if (atom.pidx == nullptr) continue;
    for (uint32_t pos = 0; pos < atom.arity; ++pos) {
      Arg& arg = args_[atom.first_arg + pos];
      if (arg.slot == s) arg.index = &target_.Postings(*atom.pidx, pos);
    }
  }
  slot_indexed_[s] = true;
}

uint32_t MatchPlan::SlotOf(TermId t) const {
  for (uint32_t s = 0; s < slot_count_; ++s) {
    if (slot_vars_[s] == t) return s;
  }
  return kNoSlot;
}

bool MatchPlan::Seed(uint32_t atom_index, uint32_t fact_index) {
  AtomPlan& atom = atoms_[atom_index];
  assert(!atom.done && "MatchPlan::Seed: atom already matched");
  if (atom.segment == nullptr) return false;
  const uint32_t row = target_.LocalRow(fact_index);
  // The slots this seed binds are listed in the atom's own ops_ region,
  // which the search never uses for a matched atom.
  Op* bound = &ops_[atom.first_arg];
  uint32_t count = 0;
  for (uint32_t pos = 0; pos < atom.arity; ++pos) {
    const Arg& arg = args_[atom.first_arg + pos];
    const TermId t = arg.column[row];
    bool ok;
    if (arg.slot == kNoSlot) {
      ok = t == arg.term;
    } else if (bindings_[arg.slot] == kNoTerm) {
      bindings_[arg.slot] = t;
      bound[count++].operand = arg.slot;
      ok = true;
    } else {
      ok = t == bindings_[arg.slot];
    }
    if (!ok) {
      for (uint32_t k = 0; k < count; ++k) bindings_[bound[k].operand] = kNoTerm;
      return false;
    }
  }
  atom.seed_binds = count;
  atom.matched = fact_index;
  atom.done = true;
  return true;
}

void MatchPlan::Unseed(uint32_t atom_index) {
  AtomPlan& atom = atoms_[atom_index];
  const Op* bound = &ops_[atom.first_arg];
  for (uint32_t k = 0; k < atom.seed_binds; ++k) {
    bindings_[bound[k].operand] = kNoTerm;
  }
  atom.seed_binds = 0;
  atom.done = false;
}

bool MatchPlan::RunWith(bool (*call)(void*), void* callee) {
  call_ = call;
  callee_ = callee;
  candidates_ = 0;
  matches_ = 0;
  const bool complete = dead_ || Solve();
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

void MatchPlan::Project(const std::vector<TermId>& terms,
                        AnswerTable& answers) {
  // A term that is no slot projects to itself.
  tuple_ = terms;
  tuple_slots_.assign(terms.size(), kNoSlot);
  for (size_t i = 0; i < terms.size(); ++i) tuple_slots_[i] = SlotOf(terms[i]);
  answers_ = &answers;
  Run([] { return false; });  // a complete match ends its check
  answers_ = nullptr;
}

// Candidate rows (atom ids of the target) for `atom` under the
// current bindings: the posting list of its most selective fixed or bound
// position (the first such position on ties), or the predicate's whole
// list when no position is fixed or bound.
//
// Concurrency contract with the store (DESIGN.md §5): posting lists and
// segments are epoch-stable — FactSet only mutates them inside a commit
// phase, and match workers only read them between commits.  Reads
// therefore take no locks here, at any thread count.
PostingList MatchPlan::CandidatesFor(const AtomPlan& atom) const {
  PostingList best = atom.fixed_best;
  uint32_t best_pos = atom.fixed_pos;
  for (uint32_t pos = 0; pos < atom.arity; ++pos) {
    const Arg& arg = args_[atom.first_arg + pos];
    if (arg.slot == kNoSlot) continue;
    const TermId value = bindings_[arg.slot];
    if (value == kNoTerm) continue;
    // A bound slot is shared or was bound by Bind, so its position is
    // indexed (the atom fits: a plan with a misfit atom never searches).
    assert(arg.index != nullptr);
    PostingList list = arg.index->Lookup(value);
    if (best_pos == kNoSlot || list.size() < best.size() ||
        (list.size() == best.size() && pos < best_pos)) {
      best = list;
      best_pos = pos;
    }
  }
  return best_pos == kNoSlot ? atom.all_rows : best;
}

// True if `atom` holds an answer slot that is still unbound.
bool MatchPlan::BindsAnswer(const AtomPlan& atom) const {
  for (uint32_t s : tuple_slots_) {
    if (s == kNoSlot || bindings_[s] != kNoTerm) continue;
    for (uint32_t a = atom.first_arg; a < atom.first_arg + atom.arity; ++a) {
      if (args_[a].slot == s) return true;
    }
  }
  return false;
}

bool MatchPlan::AnswersBound() const {
  for (uint32_t s : tuple_slots_) {
    if (s != kNoSlot && bindings_[s] == kNoTerm) return false;
  }
  return true;
}

// Returns true to continue enumeration, false to stop early.
bool MatchPlan::Solve() {
  const bool projecting = answers_ != nullptr && !checking_;
  if (projecting && AnswersBound()) return CheckTuple();
  // Pick the unmatched atom with the fewest candidates (fail-first);
  // while projecting, only among atoms that bind an answer slot.
  uint32_t best_atom = kNoSlot;
  PostingList best;
  for (uint32_t i = 0; i < atom_count_; ++i) {
    const AtomPlan& atom = atoms_[i];
    if (atom.done || (projecting && !BindsAnswer(atom))) continue;
    PostingList candidates = CandidatesFor(atom);
    if (best_atom == kNoSlot || candidates.size() < best.size()) {
      best = candidates;
      best_atom = i;
      if (best.empty()) break;
    }
  }
  if (best_atom == kNoSlot) {  // all atoms matched
    ++matches_;
    return call_(callee_);
  }
  if (best.empty()) return true;  // dead end, backtrack
  return Branch(atoms_[best_atom], best);
}

// Tries every candidate row for `atom`, recursing on each that fits.
bool MatchPlan::Branch(AtomPlan& atom, PostingList candidates) {
  // Plan the frame: known terms are compared first (the cheap rejects),
  // then the remaining positions bind or re-check slots in position
  // order, so a slot repeated inside the atom is bound before its
  // re-check.
  Op* ops = &ops_[atom.first_arg];
  uint32_t known = 0;
  for (uint32_t pos = 0; pos < atom.arity; ++pos) {
    const Arg& arg = args_[atom.first_arg + pos];
    const TermId value = arg.slot == kNoSlot ? arg.term : bindings_[arg.slot];
    if (value != kNoTerm) {
      ops[known++] = Op{arg.column, value, OpKind::kCheckTerm};
    }
  }
  uint32_t next = known;
  for (uint32_t pos = 0; pos < atom.arity; ++pos) {
    const Arg& arg = args_[atom.first_arg + pos];
    if (arg.slot == kNoSlot || bindings_[arg.slot] != kNoTerm) continue;
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
    if (!ok) continue;
    atom.matched = idx;
    if (!Solve()) {
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
bool MatchPlan::CheckTuple() {
  for (size_t i = 0; i < tuple_.size(); ++i) {
    const uint32_t s = tuple_slots_[i];
    if (s != kNoSlot) tuple_[i] = bindings_[s];
  }
  if (answers_->Contains(tuple_.data())) return true;
  checking_ = true;
  const bool exhausted = Solve();
  checking_ = false;
  if (!exhausted) answers_->Insert(tuple_.data());
  return true;
}

bool Matcher::ForEach(
    const std::vector<Atom>& pattern,
    const std::unordered_set<TermId>& mappable, const Substitution& initial,
    const std::function<bool(const Substitution&)>& callback) const {
  // A disabled span costs one relaxed load.  Per-*match* costs stay
  // uninstrumented.
  obs::Span span("hom.foreach", "hom");
  MatchPlan plan(target_, pattern, mappable, initial);
  // The caller-visible substitution is built at the first complete match
  // (`initial` plus one entry per slot) and then only overwritten in
  // place: entries of an unordered_map keep their addresses.
  Substitution sub;
  InlineArray<TermId*, kInlineArgs> entry(plan.slot_count());
  bool built = false;
  return plan.Run([&] {
    if (!built) {
      sub = initial;
      for (uint32_t s = 0; s < plan.slot_count(); ++s) {
        entry[s] = &sub[plan.SlotVar(s)];
      }
      built = true;
    }
    for (uint32_t s = 0; s < plan.slot_count(); ++s) {
      *entry[s] = plan.slots()[s];
    }
    return callback(sub);
  });
}

std::optional<Substitution> Matcher::Find(
    const std::vector<Atom>& pattern,
    const std::unordered_set<TermId>& mappable,
    const Substitution& initial) const {
  obs::Span span("hom.find", "hom");
  MatchPlan plan(target_, pattern, mappable, initial);
  std::optional<Substitution> found;
  plan.Run([&] {
    found = initial;
    for (uint32_t s = 0; s < plan.slot_count(); ++s) {
      found->emplace(plan.SlotVar(s), plan.slots()[s]);
    }
    return false;
  });
  return found;
}

bool Matcher::Exists(const std::vector<Atom>& pattern,
                     const std::unordered_set<TermId>& mappable,
                     const Substitution& initial) const {
  obs::Span span("hom.exists", "hom");
  MatchPlan plan(target_, pattern, mappable, initial);
  return !plan.Run([] { return false; });
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
  MatchPlan(target_, rest, mappable).Project(terms, answers);
}

}  // namespace frontiers
