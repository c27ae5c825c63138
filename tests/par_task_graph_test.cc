// Tests for retia::par::TaskGraph (DESIGN.md §12): a one-shot dependency
// graph run in FIFO program order on the calling thread. Nothing in the
// library schedules through it; the repo benchmark times empty graphs
// with it, so its contract stays pinned here:
//   1. Dependency order — a task never starts before every dependency
//      finished, for randomized DAGs, also when task bodies issue nested
//      intra-op ParallelRun on pools of several widths.
//   2. Failure semantics — dependents of a failed task are skipped
//      (transitively), independent tasks still run, and Run() rethrows
//      the lowest-id failure.
//   3. Nested submission — a running task may Add() follow-up work to the
//      same graph, and may Run() a graph of its own.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "par/task_graph.h"
#include "par/thread_pool.h"

namespace retia::par {
namespace {

// ---------------------------------------------------------------------------
// Basic shape.

TEST(TaskGraphTest, EmptyGraphRuns) {
  TaskGraph graph;
  graph.Run();
  EXPECT_EQ(graph.size(), 0);
  EXPECT_EQ(graph.tasks_succeeded(), 0);
}

TEST(TaskGraphTest, SingleTaskRunsOnCaller) {
  TaskGraph graph;
  int runs = 0;
  const std::thread::id caller = std::this_thread::get_id();
  graph.Add([&] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++runs;
  });
  graph.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(graph.tasks_succeeded(), 1);
}

// The caller drains the ready queue in FIFO order.
TEST(TaskGraphTest, CapOneExecutesInDeterministicFifoOrder) {
  TaskGraph graph;
  std::vector<int> order;
  // Diamond plus independent tail: 0 -> {1, 2} -> 3, then 4, 5 free.
  const TaskGraph::TaskId a = graph.Add([&] { order.push_back(0); });
  const TaskGraph::TaskId b = graph.Add([&] { order.push_back(1); }, {a});
  const TaskGraph::TaskId c = graph.Add([&] { order.push_back(2); }, {a});
  graph.Add([&] { order.push_back(3); }, {b, c});
  graph.Add([&] { order.push_back(4); });
  graph.Add([&] { order.push_back(5); });
  graph.Run();
  // Ready-queue FIFO: sources in insertion order first, then unblocked
  // tasks in the order their last dependency finished.
  const std::vector<int> expected = {0, 4, 5, 1, 2, 3};
  EXPECT_EQ(order, expected);
}

// ---------------------------------------------------------------------------
// Randomized-DAG stress: dependency order holds while task bodies run
// nested intra-op regions on pools of several widths. Start/finish stamps
// are drawn from one atomic clock; a task's start stamp must be later than
// every dependency's finish stamp.

struct StressCase {
  int pool_threads;
  int cap;  // shards of the nested ParallelRun each task issues
  uint64_t seed;
};

class TaskGraphStressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(TaskGraphStressTest, RandomDagRespectsDependencyOrder) {
  const StressCase param = GetParam();
  const int64_t kTasks = 60;
  uint64_t state = param.seed * 2654435761ull + 1;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };

  // Edges only point backwards (to lower ids), so the graph is a DAG by
  // construction; up to 3 deps per task biased toward recent tasks.
  std::vector<std::vector<TaskGraph::TaskId>> deps(kTasks);
  for (int64_t i = 1; i < kTasks; ++i) {
    const int64_t count = static_cast<int64_t>(next() % 4);
    for (int64_t d = 0; d < count; ++d) {
      const int64_t lookback = 1 + static_cast<int64_t>(next() % 8);
      deps[i].push_back(std::max<int64_t>(0, i - lookback));
    }
  }

  std::atomic<int64_t> clock{0};
  std::vector<std::atomic<int64_t>> start(kTasks), finish(kTasks);
  for (int64_t i = 0; i < kTasks; ++i) {
    start[i].store(-1);
    finish[i].store(-1);
  }

  ThreadPool pool(param.pool_threads);
  TaskGraph graph;
  for (int64_t i = 0; i < kTasks; ++i) {
    graph.Add(
        [&, i] {
          start[i].store(clock.fetch_add(1));
          // A little real work in a nested intra-op region on the pool.
          int64_t sum = 0;
          std::mutex mu;
          pool.ParallelRun(param.cap, [&](int64_t shard) {
            std::lock_guard<std::mutex> lock(mu);
            sum += shard;
          });
          ASSERT_EQ(sum, param.cap * (param.cap - 1) / 2);
          finish[i].store(clock.fetch_add(1));
        },
        deps[i]);
  }
  graph.Run();

  EXPECT_EQ(graph.size(), kTasks);
  EXPECT_EQ(graph.tasks_succeeded(), kTasks);
  EXPECT_EQ(graph.tasks_skipped(), 0);
  for (int64_t i = 0; i < kTasks; ++i) {
    ASSERT_GE(start[i].load(), 0) << "task " << i << " never ran";
    ASSERT_GT(finish[i].load(), start[i].load());
    for (TaskGraph::TaskId d : deps[i]) {
      EXPECT_GT(start[i].load(), finish[d].load())
          << "task " << i << " started before dependency " << d
          << " finished (pool=" << param.pool_threads
          << " cap=" << param.cap << " seed=" << param.seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoolAndCapMatrix, TaskGraphStressTest,
    ::testing::Values(StressCase{1, 1, 7}, StressCase{1, 4, 11},
                      StressCase{2, 2, 13}, StressCase{4, 4, 17},
                      StressCase{4, 8, 19}, StressCase{8, 3, 23},
                      StressCase{4, 4, 29}, StressCase{4, 4, 31}),
    [](const ::testing::TestParamInfo<StressCase>& info) {
      return "pool" + std::to_string(info.param.pool_threads) + "cap" +
             std::to_string(info.param.cap) + "seed" +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Exception propagation.

TEST(TaskGraphTest, ExceptionSkipsDependentsAndPropagates) {
  TaskGraph graph;
  std::atomic<int> ran{0};
  const TaskGraph::TaskId bad =
      graph.Add([] { throw std::runtime_error("task 0 failed"); });
  const TaskGraph::TaskId child = graph.Add([&] { ++ran; }, {bad});
  graph.Add([&] { ++ran; }, {child});  // transitively skipped
  graph.Add([&] { ++ran; });           // independent: still runs
  try {
    graph.Run();
    FAIL() << "Run() swallowed the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "task 0 failed");
  }
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(graph.tasks_succeeded(), 1);
  EXPECT_EQ(graph.tasks_skipped(), 2);
}

// Several independent failures: the rethrown error is the lowest-id one.
TEST(TaskGraphTest, LowestIdFailureWinsAcrossConcurrentThrows) {
  TaskGraph graph;
  graph.Add([] {});  // id 0 succeeds
  for (int i = 1; i <= 4; ++i) {
    graph.Add([i] { throw std::runtime_error("boom " + std::to_string(i)); });
  }
  try {
    graph.Run();
    FAIL() << "Run() swallowed the task exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "boom 1");
  }
  EXPECT_EQ(graph.tasks_succeeded(), 1);
}

// A task added while its dependency chain is already failing is skipped
// on arrival rather than deadlocking the run.
TEST(TaskGraphTest, NestedAddOntoFailedDependencyIsSkipped) {
  TaskGraph graph;
  std::atomic<int> ran{0};
  const TaskGraph::TaskId bad =
      graph.Add([] { throw std::runtime_error("early"); });
  graph.Add([&graph, &ran, bad] {
    // `bad` ran (and failed) ahead of this task on the FIFO queue.
    graph.Add([&ran] { ++ran; }, {bad});
  });
  EXPECT_THROW(graph.Run(), std::runtime_error);
  EXPECT_EQ(ran.load(), 0);
}

// ---------------------------------------------------------------------------
// Nested submission: tasks extend the running graph, recursively.

TEST(TaskGraphTest, NestedAddJoinsTheSameRun) {
  TaskGraph graph;
  int64_t sum = 0;
  // Each generation spawns the next until depth 5: 1+2+4+8+16+32 tasks.
  std::function<void(int64_t)> spawn = [&](int64_t depth) {
    ++sum;
    if (depth == 5) return;
    const TaskGraph::TaskId left = graph.Add([&spawn, depth] {
      spawn(depth + 1);
    });
    graph.Add([&spawn, depth] { spawn(depth + 1); }, {left});
  };
  graph.Add([&spawn] { spawn(0); });
  graph.Run();
  EXPECT_EQ(sum, 63);
  EXPECT_EQ(graph.size(), 63);
  EXPECT_EQ(graph.tasks_succeeded(), 63);
}

// A chained pipeline: prefetch tasks free, body tasks chained. The bodies
// observe strict program order.
TEST(TaskGraphTest, PipelinedChainPreservesProgramOrder) {
  const int64_t kSteps = 40;
  std::vector<int64_t> body_order;
  int64_t prefetches = 0;
  TaskGraph graph;
  TaskGraph::TaskId prev = TaskGraph::kInvalid;
  for (int64_t t = 0; t < kSteps; ++t) {
    const TaskGraph::TaskId prefetch =
        graph.Add([&prefetches] { ++prefetches; });
    std::vector<TaskGraph::TaskId> deps = {prefetch};
    if (prev != TaskGraph::kInvalid) deps.push_back(prev);
    prev = graph.Add([&body_order, t] { body_order.push_back(t); }, deps);
  }
  graph.Run();
  EXPECT_EQ(prefetches, kSteps);
  ASSERT_EQ(static_cast<int64_t>(body_order.size()), kSteps);
  for (int64_t t = 0; t < kSteps; ++t) EXPECT_EQ(body_order[t], t);
}

// Tasks may Run() a TaskGraph of their own; the inner run completes
// inside the outer task.
TEST(TaskGraphTest, NestedRunInsideTasksDoesNotDeadlock) {
  int64_t inner_sum = 0;
  TaskGraph outer;
  TaskGraph::TaskId prev = TaskGraph::kInvalid;
  for (int64_t i = 0; i < 12; ++i) {
    std::vector<TaskGraph::TaskId> deps;
    if (i % 2 == 1 && prev != TaskGraph::kInvalid) deps.push_back(prev);
    const TaskGraph::TaskId id = outer.Add(
        [&inner_sum] {
          TaskGraph inner;
          TaskGraph::TaskId tail = TaskGraph::kInvalid;
          for (int64_t j = 0; j < 6; ++j) {
            std::vector<TaskGraph::TaskId> ideps;
            if (tail != TaskGraph::kInvalid) ideps.push_back(tail);
            tail = inner.Add([&inner_sum] { ++inner_sum; }, ideps);
          }
          inner.Run();
        },
        deps);
    if (i % 2 == 1) prev = id;
  }
  outer.Run();
  EXPECT_EQ(inner_sum, 12 * 6);
  EXPECT_EQ(outer.tasks_succeeded(), 12);
}

}  // namespace
}  // namespace retia::par
