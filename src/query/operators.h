// Runtime operator instances (Table I). One instance of every plan operator
// runs at every node in the snapshot; intra-node edges are direct calls,
// Rehash/Ship edges cross the network (handled by the QueryService).
//
// Recovery hooks (§V-D): PurgeTainted drops state derived from failed nodes;
// ResetForPhase re-arms end-of-stream bookkeeping so the EOS wave can re-run
// in the new phase without re-emitting already-delivered results.
#ifndef ORCHESTRA_QUERY_OPERATORS_H_
#define ORCHESTRA_QUERY_OPERATORS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/block.h"
#include "query/plan.h"
#include "sim/cost_model.h"

namespace orchestra::query {

/// Per-(node, query) execution context shared by all operator instances.
struct ExecContext {
  net::NodeId self = net::kInvalidNode;
  size_t taint_bits = 0;
  uint32_t phase = 0;
  DynamicBitset failed;  // cumulative failed node set (bit index = NodeId)
  const sim::CostModel* costs = nullptr;

  /// Charges simulated CPU to this node.
  std::function<void(double)> charge;
  /// Rehash output: route a row of rehash op `op_id` to its hash destination.
  std::function<void(int32_t op_id, BlockRow row)> route;
  /// Ship output: deliver a row toward the query initiator.
  std::function<void(BlockRow row)> ship;
  /// A Rehash or Ship op's local input is exhausted: each of its receivers
  /// gets the op's closing frame.
  std::function<void(int32_t op_id)> send_eos;
};

class Operator {
 public:
  Operator(const PhysOp* def, ExecContext* cx)
      : def_(def), cx_(cx), child_eos_(std::max<size_t>(def->children.size(), 1), false) {}
  virtual ~Operator() = default;

  void SetParent(Operator* parent, size_t child_idx) {
    parent_ = parent;
    child_idx_in_parent_ = child_idx;
  }

  const PhysOp& def() const { return *def_; }

  /// Delivers one row from child `child_idx` (0 for unary ops).
  virtual void Consume(size_t child_idx, BlockRow row) = 0;
  /// Child `child_idx`'s stream ended (for network children this fires when
  /// every live sender's closing frame and the frames it counts arrived).
  virtual void OnChildEos(size_t child_idx);
  /// Drops operator state tainted by cx->failed (§V-D stage 2).
  virtual void PurgeTainted() {}
  /// Re-arms EOS state for a new recovery phase.
  virtual void ResetForPhase();

 protected:
  void EmitUp(BlockRow row) {
    if (parent_ != nullptr) parent_->Consume(child_idx_in_parent_, std::move(row));
  }
  /// Called once per phase when every child stream has ended.
  virtual void OnAllChildrenEos() { PropagateEos(); }
  void PropagateEos() {
    if (eos_propagated_) return;
    eos_propagated_ = true;
    if (parent_ != nullptr) parent_->OnChildEos(child_idx_in_parent_);
  }

  // A shaped scan emits rows from the top of its shape (ScanOp::Push).
  friend class ScanOp;

  const PhysOp* def_;
  ExecContext* cx_;
  Operator* parent_ = nullptr;
  size_t child_idx_in_parent_ = 0;
  std::vector<bool> child_eos_;
  bool eos_propagated_ = false;
};

class SelectOp : public Operator {
 public:
  using Operator::Operator;
  void Consume(size_t child_idx, BlockRow row) override;
  /// Charges one predicate evaluation and tests `row` against it.
  bool Test(const Tuple& row) const;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(const PhysOp* def, ExecContext* cx);
  void Consume(size_t child_idx, BlockRow row) override;
  /// Charges one projection and returns the projected row. The values it
  /// keeps are moved out of `row`; a column listed again later is copied.
  Tuple Apply(Tuple* row) const;

 private:
  std::vector<bool> moves_;  // per output column: no later one reads its input
};

/// Leaf scan (both variants). The QueryService's scan driver pushes each row
/// it reads; EOS is signalled when the scan barrier for the current phase
/// is satisfied, and travels up through the shape's ops as usual.
///
/// A scan's shape is the run of Select ops directly above it and the Project
/// that follows them, if one does. The scan runs them on each row itself, on
/// the row as read: a row a predicate drops allocates nothing, and with a
/// Project the read decodes only the columns the shape reads (`keep`).
class ScanOp : public Operator {
 public:
  using Operator::Operator;
  void Consume(size_t, BlockRow) override;  // never called (leaf)
  /// Records the shape; call once every op of the plan has its parent.
  void FindShape();
  /// Ascending columns a read must decode, or null for every column.
  const std::vector<int32_t>* keep() const { return project_ ? &keep_ : nullptr; }
  /// The one entry of a scanned row into the plan: drops it if its taint
  /// meets the failed set, runs the shape's predicates on `row`, and only for
  /// a row that passes builds the row that leaves the scan (the Project's
  /// columns, moved out of `row`) and hands it to the shape's parent.
  void Push(Tuple* row, const DynamicBitset& taint);
  void SignalEos() { OnAllChildrenEos(); }

 private:
  std::vector<const SelectOp*> selects_;
  const ProjectOp* project_ = nullptr;
  Operator* top_ = this;  // the shape's last op: its parent takes the rows
  std::vector<int32_t> keep_;
};

class ComputeOp : public Operator {
 public:
  using Operator::Operator;
  void Consume(size_t child_idx, BlockRow row) override;
};

/// Pipelined (symmetric) hash join [17]: both inputs build as they arrive and
/// probe the opposite table, so the operator never blocks.
class HashJoinOp : public Operator {
 public:
  using Operator::Operator;
  void Consume(size_t child_idx, BlockRow row) override;
  void PurgeTainted() override;

 private:
  std::string KeyOf(const Tuple& t, const std::vector<int32_t>& cols) const;
  std::unordered_multimap<std::string, BlockRow> sides_[2];
};

/// Blocking hash aggregation with re-aggregation support. Each group is
/// partitioned into sub-groups keyed by the contributing node set so that
/// recovery can drop exactly the tainted portion (§V-D). At each EOS every
/// sub-group leaves as a partial and the op's state empties.
class AggregateOp : public Operator {
 public:
  using Operator::Operator;
  void Consume(size_t child_idx, BlockRow row) override;
  void PurgeTainted() override;

 protected:
  void OnAllChildrenEos() override;

 private:
  struct Group {
    Tuple group_vals;
    // One state per aggregate for each taint. Ordered by taint so sub-group
    // emission order (which feeds output blocks, hence wire frames) is
    // deterministic, not a hash artifact.
    std::map<DynamicBitset, std::vector<AggState>> subs;
  };
  std::map<std::string, Group> groups_;
};

/// Rehash: partitions its input by hash of `hash_cols` and sends rows to the
/// owning nodes under the query's routing table. Output caching, frame
/// counts and closing frames live in the QueryService, which hands the op
/// what arrives for it over the network.
class RehashOp : public Operator {
 public:
  using Operator::Operator;
  void Consume(size_t child_idx, BlockRow row) override;
  /// A row received from another node enters the parent.
  void Deliver(BlockRow row) { EmitUp(std::move(row)); }
  /// Every live sender's edge closed: this input of the parent ended.
  void DeliverEos() {
    if (parent_ != nullptr) parent_->OnChildEos(child_idx_in_parent_);
  }

 protected:
  void OnAllChildrenEos() override { cx_->send_eos(def_->id); }
};

/// Ship: sends rows to the query initiator.
class ShipOp : public Operator {
 public:
  using Operator::Operator;
  void Consume(size_t child_idx, BlockRow row) override;

 protected:
  void OnAllChildrenEos() override { cx_->send_eos(def_->id); }
};

/// Instantiates the operator for a plan node.
std::unique_ptr<Operator> MakeOperator(const PhysOp* def, ExecContext* cx);

/// Hash of the values in `cols` of `t`, for rehash routing: equal values
/// always land on the same node. `key` is the caller's buffer for the
/// hashed bytes, reused across rows.
HashId RowHash(const Tuple& t, const std::vector<int32_t>& cols, std::string* key);

}  // namespace orchestra::query

#endif  // ORCHESTRA_QUERY_OPERATORS_H_
