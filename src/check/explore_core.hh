#pragma once

// Model-agnostic explicit-state exploration core.
//
// The search (BFS for minimal counterexamples, DFS for quick deep probes,
// canonical-encoding visited set) is independent of *what* is being
// checked; explore_model() below is the template that check::PolicyModel
// (policy_model.hh) instantiates.
//
// A model type M must provide:
//
//   using StateT     = ...;   // .encode() -> std::string (canonical, lossless)
//   using ActionT    = ...;   // .format() -> std::string (trace line)
//   using SuccessorT = ...;   // fields: state, action
//
//   StateT initial() const;
//   StateT decode(const std::string& enc) const;       // inverse of encode()
//   void successors(const StateT&, std::vector<SuccessorT>*) const;
//   std::string check(const StateT&) const;            // "" when healthy
//   bool final_state(const StateT&) const;             // quiescent-complete
//   std::string describe(const StateT&) const;         // counterexample dump
//
// The visited set stores only encodings and re-materializes states through
// decode(), so memory stays proportional to the number of distinct states.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace ascoma::check {

struct ExploreOptions {
  bool dfs = false;  ///< depth-first instead of breadth-first
  std::uint64_t max_states = 2'000'000;  ///< visited-set cap (then truncated)
};

struct ExploreResult {
  bool ok = true;          ///< no violation found
  bool truncated = false;  ///< hit max_states before exhausting the space
  std::string violation;   ///< first violation (empty when ok)
  std::vector<std::string> trace;  ///< action sequence reaching the violation
  std::string final_dump;  ///< rendering of the violating state
  std::uint64_t states = 0;       ///< distinct states visited
  std::uint64_t transitions = 0;  ///< edges explored
  std::uint64_t finals = 0;       ///< quiescent-complete states reached

  /// Multi-line report (verdict, stats, counterexample if any); defined in
  /// policy_model.cc.
  std::string report() const;
};

namespace detail {

/// Search bookkeeping plus the generic loop.  One instance per explore call.
template <class ModelT>
struct GenericSearch {
  using StateT = typename ModelT::StateT;
  using ActionT = typename ModelT::ActionT;
  using SuccessorT = typename ModelT::SuccessorT;

  /// How a visited state was reached (counterexample reconstruction).
  struct NodeRec {
    std::uint32_t parent = 0;  ///< index of the predecessor (self for root)
    ActionT action;            ///< label of the edge from the predecessor
  };

  const ModelT& model;
  const ExploreOptions& opts;
  ExploreResult result;

  // encoding -> node index; the key string is stable (node-based map), so
  // `encodings` can point into it instead of duplicating bytes.
  std::unordered_map<std::string, std::uint32_t> visited;
  std::vector<NodeRec> nodes;
  std::vector<const std::string*> encodings;
  std::deque<std::uint32_t> frontier;

  GenericSearch(const ModelT& m, const ExploreOptions& o)
      : model(m), opts(o) {}

  /// Registers `enc` if unseen; returns true when it was new.
  bool insert(std::string enc, std::uint32_t parent, const ActionT& a,
              std::uint32_t* idx) {
    auto [it, fresh] = visited.emplace(
        std::move(enc), static_cast<std::uint32_t>(nodes.size()));
    *idx = it->second;
    if (!fresh) return false;
    nodes.push_back(NodeRec{parent, a});
    encodings.push_back(&it->first);
    return true;
  }

  std::vector<std::string> trace_to(std::uint32_t idx) const {
    std::vector<std::string> steps;
    while (nodes[idx].parent != idx) {
      steps.push_back(nodes[idx].action.format());
      idx = nodes[idx].parent;
    }
    std::reverse(steps.begin(), steps.end());
    return steps;
  }

  void report_violation(std::uint32_t parent_idx, const SuccessorT& suc,
                        const std::string& why) {
    result.ok = false;
    result.violation = why;
    result.trace = trace_to(parent_idx);
    result.trace.push_back(suc.action.format());
    result.final_dump = model.describe(suc.state);
  }

  void run() {
    const StateT init = model.initial();
    {
      const std::string why = model.check(init);
      if (!why.empty()) {
        result.ok = false;
        result.violation = why;
        result.final_dump = model.describe(init);
        return;
      }
    }
    std::uint32_t root = 0;
    insert(init.encode(), 0, ActionT{}, &root);
    frontier.push_back(root);
    result.states = 1;

    std::vector<SuccessorT> sucs;
    while (!frontier.empty()) {
      std::uint32_t idx;
      if (opts.dfs) {
        idx = frontier.back();
        frontier.pop_back();
      } else {
        idx = frontier.front();
        frontier.pop_front();
      }
      const StateT s = model.decode(*encodings[idx]);
      model.successors(s, &sucs);

      if (sucs.empty()) {
        if (model.final_state(s)) {
          ++result.finals;
        } else {
          result.ok = false;
          result.violation =
              "deadlock: no enabled transition in a non-quiescent state";
          result.trace = trace_to(idx);
          result.final_dump = model.describe(s);
          return;
        }
        continue;
      }

      for (const SuccessorT& suc : sucs) {
        ++result.transitions;
        const std::string why = model.check(suc.state);
        if (!why.empty()) {
          report_violation(idx, suc, why);
          return;
        }
        std::uint32_t child;
        if (insert(suc.state.encode(), idx, suc.action, &child)) {
          ++result.states;
          if (result.states >= opts.max_states) {
            result.truncated = true;
            return;
          }
          frontier.push_back(child);
        }
      }
    }
  }
};

}  // namespace detail

/// Explores every state of `model` reachable from model.initial().
template <class ModelT>
ExploreResult explore_model(const ModelT& model, const ExploreOptions& opts) {
  detail::GenericSearch<ModelT> search(model, opts);
  search.run();
  return std::move(search.result);
}

}  // namespace ascoma::check
