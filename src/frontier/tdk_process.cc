#include "frontier/tdk_process.h"

#include <algorithm>
#include <deque>
#include <map>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "base/check.h"
#include "frontier/operations.h"
#include "hom/query_ops.h"
#include "rewriting/ucq.h"

namespace frontiers {

TdKContext TdKContext::Make(Vocabulary& vocab, uint32_t k) {
  TdKContext ctx;
  ctx.level_pred.resize(k + 1, kNoPredicate);
  for (uint32_t i = 1; i <= k; ++i) {
    ctx.level_pred[i] = vocab.AddPredicate("I" + std::to_string(i), 2);
  }
  return ctx;
}

std::optional<uint32_t> TdKContext::LevelOf(PredicateId pred) const {
  for (uint32_t i = 1; i < level_pred.size(); ++i) {
    if (level_pred[i] == pred) return i;
  }
  return std::nullopt;
}

namespace {

struct KEdge {
  TermId source;
  TermId target;
  uint32_t level;
};

std::vector<KEdge> EdgesOfK(const TdKContext& ctx, const MarkedQuery& q) {
  std::vector<KEdge> edges;
  for (const Atom& atom : q.query.atoms) {
    if (atom.args.size() != 2) continue;
    std::optional<uint32_t> level = ctx.LevelOf(atom.predicate);
    if (level.has_value()) {
      edges.push_back({atom.args[0], atom.args[1], *level});
    }
  }
  return edges;
}

bool TermMarked(const Vocabulary& vocab, const MarkedQuery& q, TermId t) {
  return !vocab.IsVariable(t) || q.IsMarked(t);
}

}  // namespace

bool IsProperlyMarkedK(const Vocabulary& vocab, const TdKContext& ctx,
                       const MarkedQuery& q) {
  std::vector<KEdge> edges = EdgesOfK(ctx, q);

  // (i) marked target forces marked source.
  for (const KEdge& e : edges) {
    if (TermMarked(vocab, q, e.target) && !TermMarked(vocab, q, e.source)) {
      return false;
    }
  }
  // (iii) same-level co-targets share marking.
  for (const KEdge& a : edges) {
    for (const KEdge& b : edges) {
      if (a.level != b.level || a.target != b.target) continue;
      if (TermMarked(vocab, q, a.source) != TermMarked(vocab, q, b.source)) {
        return false;
      }
    }
  }
  // (iv) in-edge levels of an unmarked variable fit an adjacent pair.
  std::unordered_map<TermId, std::unordered_set<uint32_t>> in_levels;
  for (const KEdge& e : edges) in_levels[e.target].insert(e.level);
  for (const auto& [t, levels] : in_levels) {
    if (TermMarked(vocab, q, t)) continue;
    uint32_t min_level = *std::min_element(levels.begin(), levels.end());
    uint32_t max_level = *std::max_element(levels.begin(), levels.end());
    if (max_level - min_level > 1) return false;
  }
  // (ii) no directed cycle through an unmarked variable.
  std::unordered_map<TermId, std::vector<TermId>> out;
  for (const KEdge& e : edges) {
    out[e.source].push_back(e.target);
    if (e.source == e.target && !TermMarked(vocab, q, e.source)) return false;
  }
  for (TermId v : Variables(vocab, q)) {
    if (q.IsMarked(v)) continue;
    std::vector<TermId> stack = out[v];
    std::unordered_set<TermId> seen;
    while (!stack.empty()) {
      TermId cur = stack.back();
      stack.pop_back();
      if (cur == v) return false;
      if (!seen.insert(cur).second) continue;
      auto it = out.find(cur);
      if (it != out.end()) {
        for (TermId next : it->second) stack.push_back(next);
      }
    }
  }
  return true;
}

bool IsLiveK(const Vocabulary& vocab, const TdKContext& ctx,
             const MarkedQuery& q) {
  return IsProperlyMarkedK(vocab, ctx, q) && !IsTotallyMarked(vocab, q);
}

TdKStep StepLiveQueryK(Vocabulary& vocab, const TdKContext& ctx,
                       const MarkedQuery& q) {
  // Maximal variable: unmarked with no outgoing edge.
  std::unordered_set<TermId> has_outgoing;
  for (const KEdge& e : EdgesOfK(ctx, q)) has_outgoing.insert(e.source);
  TermId x = kNoTerm;
  for (TermId v : Variables(vocab, q)) {
    if (!q.IsMarked(v) && has_outgoing.count(v) == 0) {
      x = v;
      break;
    }
  }
  if (x == kNoTerm) FRONTIERS_FATAL("StepLiveQueryK: no maximal variable");

  // In-atoms of x grouped by level.
  std::map<uint32_t, std::vector<TermId>> sources_by_level;
  for (const Atom& atom : q.query.atoms) {
    if (atom.args.size() == 2 && atom.args[1] == x) {
      std::optional<uint32_t> level = ctx.LevelOf(atom.predicate);
      if (level.has_value()) sources_by_level[*level].push_back(atom.args[0]);
    }
  }

  TdKStep step;
  // fuse_k: two same-level in-edges.
  for (auto& [level, sources] : sources_by_level) {
    if (sources.size() >= 2) {
      step.kind = TdKStep::Kind::kFuse;
      step.level = level;
      step.results = {ApplyFuse(q, sources[0], sources[1])};
      return step;
    }
  }
  // reduce_i: exactly one in-edge at each of two adjacent levels.
  if (sources_by_level.size() == 2) {
    auto it = sources_by_level.begin();
    uint32_t low = it->first;
    TermId low_source = it->second[0];
    ++it;
    uint32_t high = it->first;
    TermId high_source = it->second[0];
    if (high != low + 1) {
      FRONTIERS_FATAL("StepLiveQueryK: non-adjacent in-levels on a live query");
    }
    // Mirror ApplyReduce with red = I_{high}, green = I_{low}:
    // remove I_high(x_r, x), I_low(x_g, x); add I_low(u,w), I_low(w,x_r),
    // I_high(u, x_g).
    TermId x_r = high_source;
    TermId x_g = low_source;
    MarkedQuery base = q;
    base.query.atoms.clear();
    for (const Atom& atom : q.query.atoms) {
      if (!atom.ContainsTerm(x)) base.query.atoms.push_back(atom);
    }
    TermId u = vocab.FreshVariable("rk");
    TermId w = vocab.FreshVariable("rk");
    base.query.atoms.push_back(Atom(ctx.level_pred[low], {u, w}));
    base.query.atoms.push_back(Atom(ctx.level_pred[low], {w, x_r}));
    base.query.atoms.push_back(Atom(ctx.level_pred[high], {u, x_g}));
    step.kind = TdKStep::Kind::kReduce;
    step.level = low;
    for (int mask = 0; mask < 4; ++mask) {
      MarkedQuery variant = base;
      if (mask & 1) variant.marked.insert(u);
      if (mask & 2) variant.marked.insert(w);
      step.results.push_back(std::move(variant));
    }
    return step;
  }
  // cut_k: a single in-edge.
  if (sources_by_level.size() == 1 &&
      sources_by_level.begin()->second.size() == 1) {
    step.kind = TdKStep::Kind::kCut;
    step.level = sources_by_level.begin()->first;
    MarkedQuery cut = ApplyCut(q, x);
    // Prune marks of vanished variables; answer variables always stay.
    std::unordered_set<TermId> present(cut.query.answer_vars.begin(),
                                       cut.query.answer_vars.end());
    for (const Atom& atom : cut.query.atoms) {
      for (TermId t : atom.args) present.insert(t);
    }
    for (auto it = cut.marked.begin(); it != cut.marked.end();) {
      if (vocab.IsVariable(*it) && present.count(*it) == 0) {
        it = cut.marked.erase(it);
      } else {
        ++it;
      }
    }
    step.results = {std::move(cut)};
    return step;
  }
  FRONTIERS_FATAL("StepLiveQueryK: maximal variable with no in-atoms");
}

std::optional<BigNat> EdgeRankK(const Vocabulary& vocab, const TdKContext& ctx,
                                const MarkedQuery& q, uint32_t i,
                                const Atom& alpha) {
  if (i < 2 || i >= ctx.level_pred.size()) return std::nullopt;
  const PredicateId pay_pred = ctx.level_pred[i - 1];
  const PredicateId climb_pred = ctx.level_pred[i];
  if (alpha.predicate != pay_pred || alpha.args.size() != 2) {
    return std::nullopt;
  }

  // Edges with climb indices for the (*) bitmask.
  struct REdge {
    TermId source;
    TermId target;
    PredicateId pred;
    int climb_index;  // -1 unless level i
  };
  std::vector<REdge> edges;
  int climb_count = 0;
  for (const Atom& atom : q.query.atoms) {
    if (atom.args.size() != 2) continue;
    if (!ctx.LevelOf(atom.predicate).has_value()) continue;
    int idx = atom.predicate == climb_pred ? climb_count++ : -1;
    edges.push_back({atom.args[0], atom.args[1], atom.predicate, idx});
  }
  if (climb_count > 20) return std::nullopt;
  const uint32_t base_exponent = static_cast<uint32_t>(climb_count);

  struct State {
    TermId vertex;
    uint32_t mask;
    uint32_t exponent;
    bool operator<(const State& other) const {
      if (vertex != other.vertex) return vertex < other.vertex;
      if (mask != other.mask) return mask < other.mask;
      return exponent < other.exponent;
    }
  };
  struct Item {
    BigNat cost;
    State state;
  };
  auto cmp = [](const Item& a, const Item& b) { return b.cost < a.cost; };
  std::priority_queue<Item, std::vector<Item>, decltype(cmp)> queue(cmp);
  std::map<State, BigNat> best;

  auto push_start = [&](TermId t) {
    State start{t, 0, base_exponent};
    if (best.find(start) == best.end()) {
      best[start] = BigNat(0);
      queue.push({BigNat(0), start});
    }
  };
  for (TermId v : Variables(vocab, q)) {
    if (q.IsMarked(v)) push_start(v);
  }
  for (const REdge& e : edges) {
    if (!vocab.IsVariable(e.source)) push_start(e.source);
    if (!vocab.IsVariable(e.target)) push_start(e.target);
  }

  std::optional<BigNat> answer;
  while (!queue.empty()) {
    Item item = queue.top();
    queue.pop();
    auto found = best.find(item.state);
    if (found == best.end() || found->second < item.cost) continue;
    if (answer.has_value() && *answer <= item.cost) continue;
    const State& s = item.state;
    for (const REdge& e : edges) {
      for (int dir = 0; dir < 2; ++dir) {
        TermId from = dir == 0 ? e.source : e.target;
        TermId to = dir == 0 ? e.target : e.source;
        if (from != s.vertex) continue;
        State next = s;
        next.vertex = to;
        BigNat cost = item.cost;
        if (e.climb_index >= 0) {
          if (s.mask & (1u << e.climb_index)) continue;
          next.mask |= 1u << e.climb_index;
          if (dir == 0) {
            next.exponent = s.exponent + 1;
          } else {
            if (s.exponent == 0) continue;
            next.exponent = s.exponent - 1;
          }
        } else if (e.pred == pay_pred) {
          cost += BigNat::Pow(3, s.exponent);
          if (e.source == alpha.args[0] && e.target == alpha.args[1]) {
            if (!answer.has_value() || cost < *answer) answer = cost;
          }
        }
        auto it = best.find(next);
        if (it == best.end() || cost < it->second) {
          best[next] = cost;
          queue.push({cost, next});
        }
      }
    }
  }
  return answer;
}

TdKQueryRank ComputeQueryRankK(const Vocabulary& vocab, const TdKContext& ctx,
                               const MarkedQuery& q) {
  TdKQueryRank rank;
  const uint32_t k = ctx.K();
  for (uint32_t i = k; i >= 2; --i) {
    TdKQueryRank::LevelRank level;
    for (const Atom& atom : q.query.atoms) {
      if (atom.predicate == ctx.level_pred[i]) ++level.atom_count;
    }
    for (const Atom& atom : q.query.atoms) {
      if (atom.predicate != ctx.level_pred[i - 1]) continue;
      std::optional<BigNat> erk = EdgeRankK(vocab, ctx, q, i, atom);
      if (erk.has_value()) {
        level.ranks.push_back(std::move(*erk));
      } else {
        ++level.unreachable;
      }
    }
    std::sort(level.ranks.begin(), level.ranks.end(),
              [](const BigNat& a, const BigNat& b) { return b < a; });
    rank.levels.push_back(std::move(level));
  }
  return rank;
}

int CompareQueryRankK(const TdKQueryRank& a, const TdKQueryRank& b) {
  const size_t n = std::min(a.levels.size(), b.levels.size());
  for (size_t i = 0; i < n; ++i) {
    const auto& la = a.levels[i];
    const auto& lb = b.levels[i];
    if (la.atom_count != lb.atom_count) {
      return la.atom_count < lb.atom_count ? -1 : 1;
    }
    if (la.unreachable != lb.unreachable) {
      return la.unreachable < lb.unreachable ? -1 : 1;
    }
    const size_t m = std::min(la.ranks.size(), lb.ranks.size());
    for (size_t j = 0; j < m; ++j) {
      int c = la.ranks[j].Compare(lb.ranks[j]);
      if (c != 0) return c;
    }
    if (la.ranks.size() != lb.ranks.size()) {
      return la.ranks.size() < lb.ranks.size() ? -1 : 1;
    }
  }
  if (a.levels.size() != b.levels.size()) {
    return a.levels.size() < b.levels.size() ? -1 : 1;
  }
  return 0;
}

TdKProcessResult RunTdKProcess(Vocabulary& vocab, const TdKContext& ctx,
                               const ConjunctiveQuery& phi,
                               const TdKProcessOptions& options) {
  TdKProcessResult result;
  std::deque<MarkedQuery> worklist;
  std::unordered_set<std::string> seen;
  std::vector<ConjunctiveQuery> collected;
  size_t enqueued = 0;

  auto admit = [&](MarkedQuery q) {
    if (!IsProperlyMarkedK(vocab, ctx, q)) {
      ++result.discarded_improper;
      return;
    }
    std::string key = CanonicalKey(vocab, q);
    if (!seen.insert(std::move(key)).second) {
      ++result.deduplicated;
      return;
    }
    if (IsTotallyMarked(vocab, q)) {
      ++result.totally_marked;
      std::vector<PredicateId> level_preds(ctx.level_pred.begin() + 1,
                                           ctx.level_pred.end());
      for (ConjunctiveQuery& expanded : ExpandDanglingAnswerVars(
               vocab, level_preds, q.query)) {
        collected.push_back(std::move(expanded));
      }
      return;
    }
    ++enqueued;
    worklist.push_back(std::move(q));
  };

  std::vector<TermId> existential = ExistentialVariables(vocab, phi);
  const size_t variants = static_cast<size_t>(1) << existential.size();
  for (size_t mask = 0; mask < variants; ++mask) {
    MarkedQuery q;
    q.query = phi;
    for (TermId v : phi.answer_vars) q.marked.insert(v);
    for (size_t b = 0; b < existential.size(); ++b) {
      if (mask & (static_cast<size_t>(1) << b)) {
        q.marked.insert(existential[b]);
      }
    }
    admit(std::move(q));
  }

  while (!worklist.empty() && result.steps < options.max_steps &&
         enqueued < options.max_queries) {
    MarkedQuery current = std::move(worklist.front());
    worklist.pop_front();
    ++result.steps;
    TdKStep step = StepLiveQueryK(vocab, ctx, current);
    switch (step.kind) {
      case TdKStep::Kind::kCut:
        ++result.cuts;
        break;
      case TdKStep::Kind::kFuse:
        ++result.fuses;
        break;
      case TdKStep::Kind::kReduce:
        ++result.reduces;
        break;
    }
    if (options.check_rank_certificate) {
      TdKQueryRank parent = ComputeQueryRankK(vocab, ctx, current);
      for (const MarkedQuery& child : step.results) {
        TdKQueryRank child_rank = ComputeQueryRankK(vocab, ctx, child);
        ++result.certificate_checks;
        if (CompareQueryRankK(child_rank, parent) >= 0) {
          result.rank_certificate_ok = false;
        }
      }
    }
    for (MarkedQuery& child : step.results) admit(std::move(child));
  }
  result.completed = worklist.empty();

  Ucq pruned;
  for (const ConjunctiveQuery& q : collected) {
    InsertMinimal(vocab, MinimizeQuery(vocab, q), &pruned);
  }
  result.rewriting = std::move(pruned.disjuncts);
  return result;
}

}  // namespace frontiers
