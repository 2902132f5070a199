#include "query/plan.h"

#include <algorithm>

#include "common/log.h"

namespace orchestra::query {

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kScan: return "Scan";
    case OpKind::kCoveringScan: return "CoveringScan";
    case OpKind::kSelect: return "Select";
    case OpKind::kProject: return "Project";
    case OpKind::kCompute: return "Compute";
    case OpKind::kHashJoin: return "HashJoin";
    case OpKind::kAggregate: return "Aggregate";
    case OpKind::kRehash: return "Rehash";
    case OpKind::kShip: return "Ship";
  }
  return "?";
}

namespace {
void PutI32Vec(Writer* w, const std::vector<int32_t>& v) {
  w->PutVarint32(static_cast<uint32_t>(v.size()));
  for (int32_t x : v) w->PutVarint32(static_cast<uint32_t>(x));
}

Status GetI32Vec(Reader* r, std::vector<int32_t>* v) {
  uint32_t n;
  ORC_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > (1u << 16)) return Status::Corruption("plan: absurd vector");
  v->resize(n);
  for (auto& x : *v) {
    uint32_t u;
    ORC_RETURN_IF_ERROR(r->GetVarint32(&u));
    x = static_cast<int32_t>(u);
  }
  return Status::OK();
}
}  // namespace

void PhysOp::EncodeTo(Writer* w) const {
  w->PutU8(static_cast<uint8_t>(kind));
  w->PutVarint32(static_cast<uint32_t>(id));
  PutI32Vec(w, children);
  w->PutString(relation);
  key_filter.EncodeTo(w);
  w->PutBool(broadcast_local);
  predicate.EncodeTo(w);
  PutI32Vec(w, columns);
  w->PutVarint32(static_cast<uint32_t>(exprs.size()));
  for (const Expr& e : exprs) e.EncodeTo(w);
  PutI32Vec(w, left_keys);
  PutI32Vec(w, right_keys);
  PutI32Vec(w, group_cols);
  w->PutVarint32(static_cast<uint32_t>(aggs.size()));
  for (const AggSpec& a : aggs) a.EncodeTo(w);
  w->PutBool(merge_partials);
  PutI32Vec(w, hash_cols);
}

Status PhysOp::DecodeFrom(Reader* r, PhysOp* out) {
  uint8_t kind;
  ORC_RETURN_IF_ERROR(r->GetU8(&kind));
  out->kind = static_cast<OpKind>(kind);
  uint32_t id;
  ORC_RETURN_IF_ERROR(r->GetVarint32(&id));
  out->id = static_cast<int32_t>(id);
  ORC_RETURN_IF_ERROR(GetI32Vec(r, &out->children));
  ORC_RETURN_IF_ERROR(r->GetString(&out->relation));
  ORC_RETURN_IF_ERROR(storage::KeyFilter::DecodeFrom(r, &out->key_filter));
  ORC_RETURN_IF_ERROR(r->GetBool(&out->broadcast_local));
  ORC_RETURN_IF_ERROR(Expr::DecodeFrom(r, &out->predicate));
  ORC_RETURN_IF_ERROR(GetI32Vec(r, &out->columns));
  uint32_t n;
  ORC_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > 4096) return Status::Corruption("plan: too many exprs");
  out->exprs.resize(n);
  for (auto& e : out->exprs) ORC_RETURN_IF_ERROR(Expr::DecodeFrom(r, &e));
  ORC_RETURN_IF_ERROR(GetI32Vec(r, &out->left_keys));
  ORC_RETURN_IF_ERROR(GetI32Vec(r, &out->right_keys));
  ORC_RETURN_IF_ERROR(GetI32Vec(r, &out->group_cols));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > 256) return Status::Corruption("plan: too many aggs");
  out->aggs.resize(n);
  for (auto& a : out->aggs) ORC_RETURN_IF_ERROR(AggSpec::DecodeFrom(r, &a));
  ORC_RETURN_IF_ERROR(r->GetBool(&out->merge_partials));
  ORC_RETURN_IF_ERROR(GetI32Vec(r, &out->hash_cols));
  return Status::OK();
}

void FinalStage::EncodeTo(Writer* w) const {
  w->PutBool(has_agg);
  PutI32Vec(w, group_cols);
  w->PutVarint32(static_cast<uint32_t>(aggs.size()));
  for (const AggSpec& a : aggs) a.EncodeTo(w);
  w->PutBool(has_post);
  w->PutVarint32(static_cast<uint32_t>(post_exprs.size()));
  for (const Expr& e : post_exprs) e.EncodeTo(w);
  w->PutVarint32(static_cast<uint32_t>(sort.size()));
  for (const SortKey& s : sort) {
    w->PutVarint32(static_cast<uint32_t>(s.col));
    w->PutBool(s.asc);
  }
  w->PutI64(limit);
}

Status FinalStage::DecodeFrom(Reader* r, FinalStage* out) {
  ORC_RETURN_IF_ERROR(r->GetBool(&out->has_agg));
  ORC_RETURN_IF_ERROR(GetI32Vec(r, &out->group_cols));
  uint32_t n;
  ORC_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > 256) return Status::Corruption("final: too many aggs");
  out->aggs.resize(n);
  for (auto& a : out->aggs) ORC_RETURN_IF_ERROR(AggSpec::DecodeFrom(r, &a));
  ORC_RETURN_IF_ERROR(r->GetBool(&out->has_post));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > 4096) return Status::Corruption("final: too many exprs");
  out->post_exprs.resize(n);
  for (auto& e : out->post_exprs) ORC_RETURN_IF_ERROR(Expr::DecodeFrom(r, &e));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > 256) return Status::Corruption("final: too many sort keys");
  out->sort.resize(n);
  for (auto& s : out->sort) {
    uint32_t col;
    ORC_RETURN_IF_ERROR(r->GetVarint32(&col));
    s.col = static_cast<int32_t>(col);
    ORC_RETURN_IF_ERROR(r->GetBool(&s.asc));
  }
  ORC_RETURN_IF_ERROR(r->GetI64(&out->limit));
  return Status::OK();
}

std::vector<Tuple> FinalStage::Apply(const std::vector<Tuple>& rows) const {
  std::vector<Tuple> out;

  if (has_agg) {
    struct Group {
      Tuple key_vals;
      std::vector<AggState> states;
    };
    std::map<std::string, Group> groups;
    for (const Tuple& row : rows) {
      Writer kw;
      Tuple key_vals;
      for (int32_t c : group_cols) {
        key_vals.push_back(row[c]);
        row[c].EncodeTo(&kw);
      }
      auto [it, inserted] = groups.try_emplace(kw.data());
      if (inserted) {
        it->second.key_vals = std::move(key_vals);
        for (const AggSpec& a : aggs) it->second.states.emplace_back(a.fn);
      }
      for (size_t i = 0; i < aggs.size(); ++i) {
        // Shipped rows are partials: merge (COUNT partials sum, etc.).
        Value v = aggs[i].has_arg ? aggs[i].arg.Eval(row) : Value(int64_t{1});
        it->second.states[i].Merge(v);
      }
    }
    for (auto& [key, g] : groups) {
      Tuple row = g.key_vals;
      for (const AggState& s : g.states) row.push_back(s.Finish());
      out.push_back(std::move(row));
    }
  } else {
    out = rows;
  }

  if (has_post) {
    for (Tuple& row : out) {
      Tuple next;
      next.reserve(post_exprs.size());
      for (const Expr& e : post_exprs) next.push_back(e.Eval(row));
      row = std::move(next);
    }
  }

  if (!sort.empty()) {
    std::stable_sort(out.begin(), out.end(), [this](const Tuple& a, const Tuple& b) {
      for (const SortKey& k : sort) {
        int c = a[k.col].Compare(b[k.col]);
        if (c != 0) return k.asc ? c < 0 : c > 0;
      }
      return false;
    });
  }

  if (limit >= 0 && out.size() > static_cast<size_t>(limit)) {
    out.resize(static_cast<size_t>(limit));
  }
  return out;
}

std::vector<int32_t> PhysicalPlan::ParentIds() const {
  std::vector<int32_t> parents(ops.size(), -1);
  for (const PhysOp& op : ops) {
    for (int32_t c : op.children) parents[c] = op.id;
  }
  return parents;
}

std::vector<int32_t> PhysicalPlan::ScanOpIds() const {
  std::vector<int32_t> out;
  for (const PhysOp& op : ops) {
    if (op.kind == OpKind::kScan || op.kind == OpKind::kCoveringScan) {
      out.push_back(op.id);
    }
  }
  return out;
}

Status PhysicalPlan::Validate() const {
  if (ops.empty()) return Status::InvalidArgument("plan: empty");
  for (size_t i = 0; i < ops.size(); ++i) {
    const PhysOp& op = ops[i];
    if (op.id != static_cast<int32_t>(i)) {
      return Status::InvalidArgument("plan: id/index mismatch");
    }
    for (int32_t c : op.children) {
      if (c < 0 || c >= static_cast<int32_t>(ops.size()) || c == op.id) {
        return Status::InvalidArgument("plan: bad child id");
      }
    }
    switch (op.kind) {
      case OpKind::kScan:
      case OpKind::kCoveringScan:
        if (!op.children.empty()) return Status::InvalidArgument("scan has children");
        if (op.relation.empty()) return Status::InvalidArgument("scan w/o relation");
        break;
      case OpKind::kHashJoin:
        if (op.children.size() != 2)
          return Status::InvalidArgument("join needs 2 children");
        if (op.left_keys.size() != op.right_keys.size() || op.left_keys.empty())
          return Status::InvalidArgument("join keys mismatch");
        break;
      case OpKind::kShip:
      case OpKind::kRehash:
      case OpKind::kSelect:
      case OpKind::kProject:
      case OpKind::kCompute:
      case OpKind::kAggregate:
        if (op.children.size() != 1)
          return Status::InvalidArgument(std::string(OpKindName(op.kind)) +
                                         " needs 1 child");
        break;
    }
  }
  if (root < 0 || root >= static_cast<int32_t>(ops.size()) ||
      ops[root].kind != OpKind::kShip) {
    return Status::InvalidArgument("plan: root must be a Ship");
  }
  return Status::OK();
}

void PhysicalPlan::EncodeTo(Writer* w) const {
  w->PutVarint32(static_cast<uint32_t>(ops.size()));
  for (const PhysOp& op : ops) op.EncodeTo(w);
  w->PutVarint32(static_cast<uint32_t>(root));
  final_stage.EncodeTo(w);
}

Status PhysicalPlan::DecodeFrom(Reader* r, PhysicalPlan* out) {
  uint32_t n;
  ORC_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > 4096) return Status::Corruption("plan: too many ops");
  out->ops.resize(n);
  for (auto& op : out->ops) ORC_RETURN_IF_ERROR(PhysOp::DecodeFrom(r, &op));
  uint32_t root;
  ORC_RETURN_IF_ERROR(r->GetVarint32(&root));
  out->root = static_cast<int32_t>(root);
  ORC_RETURN_IF_ERROR(FinalStage::DecodeFrom(r, &out->final_stage));
  return out->Validate();
}

namespace {
void PrintOp(const PhysicalPlan& plan, int32_t id, int indent, std::string* out) {
  const PhysOp& op = plan.ops[id];
  out->append(indent, ' ');
  *out += OpKindName(op.kind);
  *out += '#';
  *out += std::to_string(op.id);
  if (!op.relation.empty()) *out += " " + op.relation;
  if (op.kind == OpKind::kSelect) {
    *out += ' ';
    *out += op.predicate.ToString();
  }
  if (op.kind == OpKind::kAggregate && op.merge_partials) *out += " (merge)";
  *out += "\n";
  for (int32_t c : op.children) PrintOp(plan, c, indent + 2, out);
}
}  // namespace

std::string PhysicalPlan::ToString() const {
  std::string out;
  PrintOp(*this, root, 0, &out);
  return out;
}

}  // namespace orchestra::query
