#include "cdss/cdss.h"

#include <algorithm>

#include "common/log.h"
#include "sql/parser.h"

namespace orchestra::cdss {

using storage::RelationDef;
using storage::Tuple;
using storage::Update;
using storage::Value;

storage::RelationDef SharedRelation(const std::string& name,
                                    std::vector<storage::ColumnDef> cols,
                                    uint32_t key_arity, uint32_t num_partitions) {
  // "Each participant stores its own updates in the CDSS, disjoint from all
  // others" (§IV): the publisher's name is part of the shared key, so
  // concurrent versions of the same logical key coexist until import-time
  // reconciliation. Placement uses only the logical key, co-locating the
  // competing versions.
  std::vector<storage::ColumnDef> shared(cols.begin(), cols.begin() + key_arity);
  shared.push_back({"origin", storage::ValueType::kString});
  shared.insert(shared.end(), cols.begin() + key_arity, cols.end());
  shared.push_back({"origin_priority", storage::ValueType::kInt64});
  RelationDef def;
  def.name = name;
  def.schema = storage::Schema(std::move(shared), key_arity + 1);
  def.partition_key_arity = key_arity;
  def.num_partitions = num_partitions;
  return def;
}

Participant::Participant(deploy::Deployment* dep, size_t node, std::string name,
                         int trust_priority)
    : dep_(dep), node_(node), name_(std::move(name)), trust_priority_(trust_priority) {}

std::string Participant::LocalKey(const std::string& relation, const Tuple& t) const {
  auto it = local_catalog_.find(relation);
  ORC_CHECK(it != local_catalog_.end(), "unknown local relation " << relation);
  std::string k = relation;
  k.push_back('\x1f');
  // Key prefix only: local DB stores one live version per key.
  Tuple key_only(t.begin(), t.begin() + it->second.schema.key_arity());
  for (const Value& v : key_only) v.EncodeOrdered(&k);
  return k;
}

void Participant::CreateLocalRelation(const RelationDef& def) {
  local_catalog_[def.name] = def;
}

void Participant::LocalInsert(const std::string& relation, Tuple t) {
  Writer w;
  storage::EncodeTuple(t, &w);
  local_db_.Put(LocalKey(relation, t), w.data()).ok();
  log_.push_back(LoggedUpdate{relation, Update::Insert(std::move(t))});
}

void Participant::LocalDelete(const std::string& relation, Tuple key) {
  local_db_.Delete(LocalKey(relation, key)).ok();
  log_.push_back(LoggedUpdate{relation, Update::Delete(std::move(key))});
}

std::vector<Tuple> Participant::LocalScan(const std::string& relation) const {
  std::vector<Tuple> out;
  std::string prefix = relation;
  prefix.push_back('\x1f');
  for (auto it = local_db_.SeekPrefix(prefix);
       localstore::LocalStore::WithinPrefix(it, prefix); it.Next()) {
    Reader r(it.value());
    Tuple t;
    if (storage::DecodeTuple(&r, &t).ok()) out.push_back(std::move(t));
  }
  return out;
}

Status Participant::CreateSharedRelation(const RelationDef& def) {
  return dep_->CreateRelation(node_, def);
}

Result<storage::Epoch> Participant::Publish() {
  // Translate the local update log into shared-relation updates, stamping
  // each tuple with this participant's origin metadata (§II: "publishing
  // updates from the local DBMS log to versioned storage").
  storage::UpdateBatch batch;
  for (const LoggedUpdate& lu : log_) {
    auto bound = shared_binding_.find(lu.relation);
    std::string shared_name =
        bound != shared_binding_.end() ? bound->second : lu.relation;
    auto shared = dep_->storage(node_).Relation(shared_name);
    if (!shared.ok()) {
      return Status::FailedPrecondition("no shared relation for " + lu.relation);
    }
    // Shared layout: [logical key..., origin, rest..., origin_priority].
    const Tuple& src = lu.update.tuple;
    uint32_t logical_key = shared->schema.key_arity() - 1;
    if (src.size() + 2 != shared->schema.arity() || src.size() < logical_key) {
      return Status::InvalidArgument("tuple arity does not match shared schema of " +
                                     lu.relation);
    }
    Tuple t(src.begin(), src.begin() + logical_key);
    t.emplace_back(name_);
    t.insert(t.end(), src.begin() + logical_key, src.end());
    t.emplace_back(static_cast<int64_t>(trust_priority_));
    auto& dst = batch[shared_name];
    if (lu.update.kind == Update::Kind::kInsert) {
      dst.push_back(Update::Insert(std::move(t)));
    } else {
      dst.push_back(Update::Delete(std::move(t)));
    }
  }
  if (batch.empty()) return Status::FailedPrecondition("nothing to publish");

  // The publisher discovers the current epoch from confirmed claims (§IV's
  // gossip role) and assigns the next one.
  Result<storage::Epoch> epoch = dep_->Publish(node_, std::move(batch));
  if (epoch.ok()) log_.clear();
  return epoch;
}

Result<ImportReport> Participant::Import() {
  ImportReport report;
  // Import the newest epoch any live publisher knows of; the query is pinned
  // to it explicitly.
  report.epoch = dep_->MaxKnownEpoch();

  auto catalog = [this](const std::string& name) {
    return dep_->storage(node_).Relation(name);
  };

  for (const SchemaMapping& mapping : mappings_) {
    auto target = local_catalog_.find(mapping.target_relation);
    if (target == local_catalog_.end()) {
      return Status::InvalidArgument("mapping targets unknown local relation " +
                                     mapping.target_relation);
    }
    // Update exchange (§II): the mapping is a query over the shared schema,
    // executed by the distributed engine against the import epoch.
    auto analyzed = sql::ParseAndAnalyze(mapping.sql, catalog);
    ORC_RETURN_IF_ERROR(analyzed.status());
    optimizer::CostParams params;
    params.num_nodes = dep_->size();
    optimizer::Optimizer opt({}, params);
    auto planned = opt.Plan(*analyzed);
    ORC_RETURN_IF_ERROR(planned.status());
    auto rows = dep_->ExecuteQuery(node_, planned->plan, report.epoch);
    ORC_RETURN_IF_ERROR(rows.status());

    const storage::Schema& schema = target->second.schema;
    // Mapping output convention: target columns, then origin name + priority.
    for (const Tuple& full : rows->rows) {
      if (full.size() != schema.arity() + 2) {
        return Status::InvalidArgument(
            "mapping " + mapping.name + " arity mismatch: got " +
            std::to_string(full.size()) + ", want " +
            std::to_string(schema.arity() + 2) + " (target + origin columns)");
      }
      Tuple t(full.begin(), full.begin() + schema.arity());
      std::string origin = full[schema.arity()].AsString();
      int other_priority =
          static_cast<int>(full[schema.arity() + 1].is_null()
                               ? 1 << 20
                               : full[schema.arity() + 1].AsInt64());
      if (origin == name_) continue;  // own data round-trips; nothing to do

      // Reconciliation (§II): key collision against the local version.
      std::string key = LocalKey(mapping.target_relation, t);
      auto existing = local_db_.Get(key);
      if (existing.ok()) {
        Reader r(*existing);
        Tuple mine;
        if (storage::DecodeTuple(&r, &mine).ok() && !(mine == t)) {
          Conflict c;
          c.relation = mapping.target_relation;
          c.mine = mine;
          c.theirs = t;
          c.resolved_mine = MineWins(other_priority);
          report.conflicts_found += 1;
          if (c.resolved_mine) {
            report.conflicts_kept_mine += 1;
            report.conflicts.push_back(std::move(c));
            continue;  // keep local version
          }
          report.conflicts.push_back(std::move(c));
        }
      }
      Writer w;
      storage::EncodeTuple(t, &w);
      local_db_.Put(key, w.data()).ok();
      report.tuples_imported += 1;
    }
  }
  return report;
}

}  // namespace orchestra::cdss
