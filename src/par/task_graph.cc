#include "par/task_graph.h"

#include <utility>

#include "util/check.h"

namespace retia::par {

TaskGraph::TaskId TaskGraph::Add(std::function<void()> fn,
                                 const std::vector<TaskId>& deps) {
  RETIA_CHECK_MSG(!finished_, "TaskGraph::Add after Run() returned");
  const TaskId id = static_cast<TaskId>(nodes_.size());
  nodes_.emplace_back();
  Node& node = nodes_.back();
  node.fn = std::move(fn);
  bool dead_dep = false;
  for (TaskId dep : deps) {
    RETIA_CHECK_LE(0, dep);
    RETIA_CHECK_LT(dep, id);
    Node& d = nodes_[static_cast<size_t>(dep)];
    switch (d.state) {
      case NodeState::kDone:
        break;  // already satisfied
      case NodeState::kFailed:
      case NodeState::kSkipped:
        dead_dep = true;
        break;
      case NodeState::kPending:  // not finished (possibly running)
        ++node.unmet;
        d.dependents.push_back(id);
        break;
    }
  }
  if (dead_dep) {
    Skip(id);
  } else if (node.unmet == 0) {
    ready_.push_back(id);
  }
  return id;
}

void TaskGraph::Run() {
  RETIA_CHECK_MSG(!started_, "TaskGraph::Run is single-use");
  started_ = true;
  while (!ready_.empty()) {
    const TaskId id = ready_.front();
    ready_.pop_front();
    std::exception_ptr error;
    try {
      nodes_[static_cast<size_t>(id)].fn();
    } catch (...) {
      error = std::current_exception();
    }
    Finish(id, error);
  }
  finished_ = true;
  if (first_error_) std::rethrow_exception(first_error_);
}

void TaskGraph::Finish(TaskId id, std::exception_ptr error) {
  Node& node = nodes_[static_cast<size_t>(id)];
  node.fn = nullptr;  // release captures as soon as the task is over
  node.state = error ? NodeState::kFailed : NodeState::kDone;
  if (error == nullptr) {
    ++succeeded_;
  } else if (first_error_id_ == kInvalid || id < first_error_id_) {
    first_error_id_ = id;
    first_error_ = error;
  }
  for (TaskId dep : node.dependents) {
    Node& d = nodes_[static_cast<size_t>(dep)];
    if (d.state != NodeState::kPending) continue;
    if (error != nullptr) {
      Skip(dep);
    } else if (--d.unmet == 0) {
      ready_.push_back(dep);
    }
  }
  node.dependents.clear();
}

void TaskGraph::Skip(TaskId id) {
  Node& node = nodes_[static_cast<size_t>(id)];
  node.state = NodeState::kSkipped;
  node.fn = nullptr;
  ++skipped_;
  for (TaskId dep : node.dependents) {
    if (nodes_[static_cast<size_t>(dep)].state == NodeState::kPending) {
      Skip(dep);
    }
  }
  node.dependents.clear();
}

}  // namespace retia::par
