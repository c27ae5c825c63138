#ifndef RETIA_PAR_TASK_GRAPH_H_
#define RETIA_PAR_TASK_GRAPH_H_

// retia::par::TaskGraph — a one-shot dependency graph run in program
// order on the calling thread.
//
// Nothing in the library schedules work through it: Evolve's graph builds
// and the per-state decodes fan out on par::ParallelShards, and the
// recurrent chain and the trainer are plain loops (DESIGN.md §12). It
// exists only because the repo benchmark (perfbench/) times empty graphs
// through it; delete it once a benchmark change drops those spans.
//
// Semantics: Run() drains a FIFO ready queue on the caller. Sources run in
// insertion order, then each task becomes ready when its last dependency
// finishes, in finishing order. A task body may Add() tasks to the same
// graph while it runs; they join the same Run(). Exceptions are caught:
// dependents of a failed task are skipped (transitively), independent
// tasks still run, and Run() rethrows the error of the lowest-id failed
// task once the queue is empty.
//
// Usage:
//   par::TaskGraph graph;
//   auto prep = graph.Add([&] { BuildSnapshot(t); });
//   graph.Add([&] { EvolveStep(t); }, {prep});
//   graph.Run();  // rethrows the lowest-id task error

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <vector>

namespace retia::par {

class TaskGraph {
 public:
  using TaskId = int64_t;
  static constexpr TaskId kInvalid = -1;

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  // Adds a task that runs after every task in `deps` (ids returned by
  // earlier Add calls) has finished. May be called before Run(), or from
  // inside a running task of this graph. If any dependency already failed
  // or was skipped, the new task is skipped too. CHECK-fails on an id that
  // is not an earlier task's, or when called after Run() returned.
  TaskId Add(std::function<void()> fn, const std::vector<TaskId>& deps = {});

  // Runs every task on the calling thread. Single-use: a second Run()
  // CHECK-fails. Rethrows the error of the lowest-id failed task.
  void Run();

  // Tasks added so far (any state).
  int64_t size() const { return static_cast<int64_t>(nodes_.size()); }

  // Tasks that ran to completion (excludes failed and skipped).
  int64_t tasks_succeeded() const { return succeeded_; }

  // Tasks skipped because a (transitive) dependency failed.
  int64_t tasks_skipped() const { return skipped_; }

 private:
  enum class NodeState { kPending, kDone, kFailed, kSkipped };

  struct Node {
    std::function<void()> fn;
    int64_t unmet = 0;               // not-yet-finished dependencies
    std::vector<TaskId> dependents;  // edges out
    NodeState state = NodeState::kPending;
  };

  void Finish(TaskId id, std::exception_ptr error);
  void Skip(TaskId id);

  // deque: an Add from inside a running task must not move the node whose
  // body is executing.
  std::deque<Node> nodes_;
  std::deque<TaskId> ready_;
  int64_t succeeded_ = 0;
  int64_t skipped_ = 0;
  std::exception_ptr first_error_;
  TaskId first_error_id_ = kInvalid;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace retia::par

#endif  // RETIA_PAR_TASK_GRAPH_H_
