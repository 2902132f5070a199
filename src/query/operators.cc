#include "query/operators.h"

#include <algorithm>

#include "common/log.h"
#include "hash/sha1.h"

namespace orchestra::query {

void Operator::OnChildEos(size_t child_idx) {
  ORC_CHECK(child_idx < child_eos_.size(), "bad child index");
  child_eos_[child_idx] = true;
  for (bool eos : child_eos_) {
    if (!eos) return;
  }
  OnAllChildrenEos();
}

void Operator::ResetForPhase() {
  std::fill(child_eos_.begin(), child_eos_.end(), false);
  eos_propagated_ = false;
}

void ScanOp::Consume(size_t, BlockRow) {
  ORC_CHECK(false, "scan is a leaf; rows are pushed by the scan driver");
}

void ScanOp::FindShape() {
  Operator* op = parent_;
  while (op != nullptr && op->def().kind == OpKind::kSelect) {
    selects_.push_back(static_cast<const SelectOp*>(op));
    top_ = op;
    op = op->parent_;
  }
  if (op == nullptr || op->def().kind != OpKind::kProject) return;
  project_ = static_cast<const ProjectOp*>(op);
  top_ = op;
  keep_ = op->def().columns;
  for (const SelectOp* s : selects_) s->def().predicate.CollectColumns(&keep_);
  std::sort(keep_.begin(), keep_.end());
  keep_.erase(std::unique(keep_.begin(), keep_.end()), keep_.end());
}

void ScanOp::Push(Tuple* row, const DynamicBitset& taint) {
  if (cx_->taint_bits > 0 && taint.Intersects(cx_->failed)) return;
  for (const SelectOp* s : selects_) {
    if (!s->Test(*row)) return;
  }
  BlockRow out;
  out.tuple = project_ != nullptr ? project_->Apply(row) : std::move(*row);
  out.taint = taint;
  top_->EmitUp(std::move(out));
}

bool SelectOp::Test(const Tuple& row) const {
  cx_->charge(cx_->costs->predicate_eval_us);
  return def_->predicate.EvalBool(row);
}

void SelectOp::Consume(size_t, BlockRow row) {
  if (Test(row.tuple)) EmitUp(std::move(row));
}

ProjectOp::ProjectOp(const PhysOp* def, ExecContext* cx)
    : Operator(def, cx), moves_(def->columns.size(), true) {
  const std::vector<int32_t>& cols = def->columns;
  for (size_t i = 0; i < cols.size(); ++i) {
    moves_[i] = std::find(cols.begin() + static_cast<std::ptrdiff_t>(i) + 1, cols.end(),
                          cols[i]) == cols.end();
  }
}

Tuple ProjectOp::Apply(Tuple* row) const {
  cx_->charge(cx_->costs->project_us);
  Tuple out;
  out.reserve(def_->columns.size());
  for (size_t i = 0; i < def_->columns.size(); ++i) {
    Value& v = (*row)[def_->columns[i]];
    if (moves_[i]) {
      out.push_back(std::move(v));
    } else {
      out.push_back(v);
    }
  }
  return out;
}

void ProjectOp::Consume(size_t, BlockRow row) {
  row.tuple = Apply(&row.tuple);
  EmitUp(std::move(row));
}

void ComputeOp::Consume(size_t, BlockRow row) {
  cx_->charge(cx_->costs->predicate_eval_us * static_cast<double>(def_->exprs.size()));
  Tuple out;
  out.reserve(def_->exprs.size());
  for (const Expr& e : def_->exprs) out.push_back(e.Eval(row.tuple));
  row.tuple = std::move(out);
  EmitUp(std::move(row));
}

std::string HashJoinOp::KeyOf(const Tuple& t, const std::vector<int32_t>& cols) const {
  Writer w;
  for (int32_t c : cols) t[c].EncodeTo(&w);
  return w.Release();
}

void HashJoinOp::Consume(size_t child_idx, BlockRow row) {
  ORC_CHECK(child_idx < 2, "join has two children");
  const auto& my_keys = (child_idx == 0) ? def_->left_keys : def_->right_keys;
  std::string key = KeyOf(row.tuple, my_keys);
  cx_->charge(cx_->costs->hash_build_us);

  // Probe the opposite side first, then insert (symmetric hash join).
  auto& other = sides_[1 - child_idx];
  auto [lo, hi] = other.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    cx_->charge(cx_->costs->hash_probe_us);
    const BlockRow& match = it->second;
    BlockRow out;
    const Tuple& left = (child_idx == 0) ? row.tuple : match.tuple;
    const Tuple& right = (child_idx == 0) ? match.tuple : row.tuple;
    out.tuple.reserve(left.size() + right.size());
    out.tuple.insert(out.tuple.end(), left.begin(), left.end());
    out.tuple.insert(out.tuple.end(), right.begin(), right.end());
    out.taint = row.taint;
    out.taint.UnionWith(match.taint);
    EmitUp(std::move(out));
  }
  sides_[child_idx].emplace(std::move(key), std::move(row));
}

void HashJoinOp::PurgeTainted() {
  for (auto& side : sides_) {
    for (auto it = side.begin(); it != side.end();) {
      if (it->second.taint.Intersects(cx_->failed)) {
        it = side.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void AggregateOp::Consume(size_t, BlockRow row) {
  cx_->charge(cx_->costs->agg_update_us);
  Writer kw;
  for (int32_t c : def_->group_cols) row.tuple[c].EncodeTo(&kw);
  auto [git, inserted] = groups_.try_emplace(kw.data());
  Group& g = git->second;
  if (inserted) {
    for (int32_t c : def_->group_cols) g.group_vals.push_back(row.tuple[c]);
  }
  auto [sit, sub_inserted] = g.subs.try_emplace(row.taint);
  std::vector<AggState>& states = sit->second;
  if (sub_inserted) {
    for (const AggSpec& a : def_->aggs) states.emplace_back(a.fn);
  }
  for (size_t i = 0; i < def_->aggs.size(); ++i) {
    const AggSpec& a = def_->aggs[i];
    if (def_->merge_partials) {
      Value v = a.has_arg ? a.arg.Eval(row.tuple) : Value(int64_t{1});
      states[i].Merge(v);
    } else if (a.has_arg) {
      states[i].Update(a.arg.Eval(row.tuple));
    } else {
      states[i].UpdateCountStar();
    }
  }
}

void AggregateOp::OnAllChildrenEos() {
  // Each sub-group leaves as a partial and the state starts empty again:
  // rows a later recovery phase brings (an inherited range's rescan, a
  // resent cache) form partials of their own, which are merged downstream
  // like the rest.
  for (auto& [key, g] : groups_) {
    for (auto& [taint, states] : g.subs) {
      BlockRow out;
      out.tuple = g.group_vals;
      for (const AggState& s : states) out.tuple.push_back(s.Finish());
      out.taint = taint;
      EmitUp(std::move(out));
    }
  }
  groups_.clear();
  PropagateEos();
}

void AggregateOp::PurgeTainted() {
  for (auto git = groups_.begin(); git != groups_.end();) {
    Group& g = git->second;
    for (auto sit = g.subs.begin(); sit != g.subs.end();) {
      if (sit->first.Intersects(cx_->failed)) {
        sit = g.subs.erase(sit);
      } else {
        ++sit;
      }
    }
    if (g.subs.empty()) {
      git = groups_.erase(git);
    } else {
      ++git;
    }
  }
}

void RehashOp::Consume(size_t, BlockRow row) {
  cx_->route(def_->id, std::move(row));
}

void ShipOp::Consume(size_t, BlockRow row) { cx_->ship(std::move(row)); }

std::unique_ptr<Operator> MakeOperator(const PhysOp* def, ExecContext* cx) {
  switch (def->kind) {
    case OpKind::kScan:
    case OpKind::kCoveringScan:
      return std::make_unique<ScanOp>(def, cx);
    case OpKind::kSelect:
      return std::make_unique<SelectOp>(def, cx);
    case OpKind::kProject:
      return std::make_unique<ProjectOp>(def, cx);
    case OpKind::kCompute:
      return std::make_unique<ComputeOp>(def, cx);
    case OpKind::kHashJoin:
      return std::make_unique<HashJoinOp>(def, cx);
    case OpKind::kAggregate:
      return std::make_unique<AggregateOp>(def, cx);
    case OpKind::kRehash:
      return std::make_unique<RehashOp>(def, cx);
    case OpKind::kShip:
      return std::make_unique<ShipOp>(def, cx);
  }
  ORC_CHECK(false, "unknown operator kind");
  return nullptr;
}

HashId RowHash(const Tuple& t, const std::vector<int32_t>& cols, std::string* key) {
  // Matches storage::TupleKeyHash on the same values: a relation partitioned
  // on its key attributes is already co-partitioned with a rehash on those
  // values, so the optimizer can skip one side's rehash (Fig. 6).
  key->clear();
  for (int32_t c : cols) t[c].EncodeOrdered(key);
  return storage::TupleKeyHash(*key);
}

}  // namespace orchestra::query
