#include "gaifman/gaifman.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace frontiers {

namespace {
const std::vector<TermId>& EmptyNeighbors() {
  static const std::vector<TermId>* empty = new std::vector<TermId>();
  return *empty;
}
}  // namespace

GaifmanGraph::GaifmanGraph(const FactSet& facts) {
  vertices_ = facts.Domain();
  std::unordered_map<TermId, std::unordered_set<TermId>> sets;
  for (TermId v : vertices_) sets[v];  // ensure isolated vertices exist
  for (const Atom& atom : facts.ToAtoms()) {
    for (size_t i = 0; i < atom.args.size(); ++i) {
      for (size_t j = i + 1; j < atom.args.size(); ++j) {
        if (atom.args[i] == atom.args[j]) continue;
        sets[atom.args[i]].insert(atom.args[j]);
        sets[atom.args[j]].insert(atom.args[i]);
      }
    }
  }
  for (TermId v : vertices_) {
    std::vector<TermId> ns(sets[v].begin(), sets[v].end());
    std::sort(ns.begin(), ns.end());
    adjacency_.emplace(v, std::move(ns));
  }
}

const std::vector<TermId>& GaifmanGraph::Neighbors(TermId t) const {
  auto it = adjacency_.find(t);
  if (it == adjacency_.end()) return EmptyNeighbors();
  return it->second;
}

uint32_t GaifmanGraph::MaxDegree() const {
  uint32_t max = 0;
  for (TermId v : vertices_) max = std::max(max, Degree(v));
  return max;
}

uint32_t GaifmanGraph::Distance(TermId from, TermId to) const {
  if (adjacency_.find(from) == adjacency_.end() ||
      adjacency_.find(to) == adjacency_.end()) {
    return kInfiniteDistance;
  }
  if (from == to) return 0;
  std::unordered_map<TermId, uint32_t> dist;
  dist[from] = 0;
  std::deque<TermId> queue = {from};
  while (!queue.empty()) {
    TermId cur = queue.front();
    queue.pop_front();
    uint32_t d = dist[cur];
    for (TermId next : Neighbors(cur)) {
      if (dist.find(next) != dist.end()) continue;
      if (next == to) return d + 1;
      dist[next] = d + 1;
      queue.push_back(next);
    }
  }
  return kInfiniteDistance;
}

std::unordered_map<TermId, uint32_t> GaifmanGraph::DistancesFrom(
    TermId from) const {
  std::unordered_map<TermId, uint32_t> dist;
  if (adjacency_.find(from) == adjacency_.end()) return dist;
  dist[from] = 0;
  std::deque<TermId> queue = {from};
  while (!queue.empty()) {
    TermId cur = queue.front();
    queue.pop_front();
    for (TermId next : Neighbors(cur)) {
      if (dist.find(next) != dist.end()) continue;
      dist[next] = dist[cur] + 1;
      queue.push_back(next);
    }
  }
  return dist;
}

std::unordered_map<TermId, uint32_t> GaifmanGraph::ConnectedComponents()
    const {
  std::unordered_map<TermId, uint32_t> component;
  uint32_t next = 0;
  for (TermId v : vertices_) {
    if (component.find(v) != component.end()) continue;
    uint32_t id = next++;
    std::deque<TermId> queue = {v};
    component[v] = id;
    while (!queue.empty()) {
      TermId cur = queue.front();
      queue.pop_front();
      for (TermId n : Neighbors(cur)) {
        if (component.find(n) == component.end()) {
          component[n] = id;
          queue.push_back(n);
        }
      }
    }
  }
  return component;
}

uint32_t GaifmanGraph::NumComponents() const {
  uint32_t max_id = 0;
  auto components = ConnectedComponents();
  if (components.empty()) return 0;
  for (const auto& [_, id] : components) max_id = std::max(max_id, id);
  return max_id + 1;
}

bool GaifmanGraph::SameComponent(TermId a, TermId b) const {
  auto components = ConnectedComponents();
  auto ia = components.find(a);
  auto ib = components.find(b);
  if (ia == components.end() || ib == components.end()) return false;
  return ia->second == ib->second;
}

}  // namespace frontiers
