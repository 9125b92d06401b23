#include "queries/query_server.h"

#include "obs/modb_metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace modb {
namespace {

// The server gauges reflect this process's registered queries and live
// engine groups (summed across servers if several exist).
void NoteServerShape(int64_t query_delta, int64_t engine_delta) {
  obs::ModbMetrics& metrics = obs::M();
  if (query_delta != 0) metrics.server_queries->Add(query_delta);
  if (engine_delta != 0) metrics.server_engines->Add(engine_delta);
}

}  // namespace

QueryServer::QueryServer(MovingObjectDatabase mod, double start_time)
    : mod_(std::move(mod)), now_(start_time) {
  MODB_CHECK_GE(start_time, mod_.last_update_time());
}

QueryServer::EngineGroup& QueryServer::GroupFor(const std::string& key,
                                                const GDistancePtr& gdist) {
  auto it = engines_.find(key);
  if (it != engines_.end()) return it->second;
  EngineGroup group;
  group.engine = std::make_unique<FutureQueryEngine>(mod_, gdist, now_);
  // All sweep work this group does from here on is attributed to its
  // ledger GROUP row (re-registration of a retired key reuses the row).
  group.engine->state().SetCostSink(ledger_->GroupCell(key));
  auto [inserted, ok] = engines_.emplace(key, std::move(group));
  MODB_CHECK(ok);
  return inserted->second;
}

QueryId QueryServer::AddKnn(const std::string& gdist_key, GDistancePtr gdist,
                            size_t k) {
  obs::TraceSpan span(obs::SpanName::kQueryRegister, obs::kTraceNoId, now_, k);
  const size_t engines_before = engines_.size();
  EngineGroup& group = GroupFor(gdist_key, gdist);
  const bool fresh = !group.engine->started();
  const QueryId id = next_id_++;
  obs::CostCell* cost =
      ledger_->AddQuery(id, gdist_key, /*is_knn=*/true, static_cast<double>(k));
  group.knn_kernels.emplace(
      id, std::make_unique<KnnKernel>(&group.engine->state(), k, cost));
  if (fresh) group.engine->Start();
  queries_[id] = QueryRef{gdist_key, /*is_knn=*/true};
  NoteServerShape(1, static_cast<int64_t>(engines_.size() - engines_before));
  return id;
}

QueryId QueryServer::AddWithin(const std::string& gdist_key,
                               GDistancePtr gdist, double threshold) {
  obs::TraceSpan span(obs::SpanName::kQueryRegister, obs::kTraceNoId, now_);
  const size_t engines_before = engines_.size();
  EngineGroup& group = GroupFor(gdist_key, gdist);
  const bool fresh = !group.engine->started();
  const QueryId id = next_id_++;
  obs::CostCell* cost =
      ledger_->AddQuery(id, gdist_key, /*is_knn=*/false, threshold);
  group.within_kernels.emplace(
      id, std::make_unique<WithinKernel>(&group.engine->state(),
                                         next_sentinel_--, threshold, cost));
  if (fresh) group.engine->Start();
  queries_[id] = QueryRef{gdist_key, /*is_knn=*/false};
  NoteServerShape(1, static_cast<int64_t>(engines_.size() - engines_before));
  return id;
}

Status QueryServer::RemoveQuery(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(id));
  }
  auto group_it = engines_.find(it->second.key);
  MODB_CHECK(group_it != engines_.end());
  EngineGroup& group = group_it->second;
  if (it->second.is_knn) {
    group.knn_kernels.erase(id);
  } else {
    group.within_kernels.erase(id);  // Dtor withdraws the sentinel.
  }
  queries_.erase(it);
  ledger_->RetireQuery(id);
  int64_t engine_delta = 0;
  if (group.knn_kernels.empty() && group.within_kernels.empty()) {
    engines_.erase(group_it);
    engine_delta = -1;
  }
  NoteServerShape(-1, engine_delta);
  return Status::Ok();
}

Status QueryServer::ApplyUpdate(const Update& update) {
  if (update.time < now_) {
    return Status::FailedPrecondition("update precedes server time");
  }
  obs::TraceSpan span(obs::SpanName::kServerUpdate, update.oid, update.time,
                      static_cast<uint64_t>(update.kind));
  MODB_RETURN_IF_ERROR(mod_.Apply(update));
  obs::ModbMetrics& metrics = obs::M();
  metrics.server_updates->Increment();
  const uint64_t wall_start = obs::TraceNowMicros();
  const SweepStats before = TotalStats();
  for (auto& [key, group] : engines_) {
    MODB_RETURN_IF_ERROR(group.engine->ApplyUpdate(update));
    metrics.server_update_fanout->Increment();
  }
  now_ = update.time;
  // Offer the whole fan-out cascade to the slow-update log (admission is
  // one relaxed load + compare unless this update beats the floor).
  const SweepStats delta = TotalStats().Minus(before);
  obs::SlowUpdateRecord record;
  record.trace_id = span.trace_id();
  record.oid = update.oid;
  record.kind = static_cast<int32_t>(update.kind);
  record.model_time = update.time;
  record.wall_micros = obs::TraceNowMicros() - wall_start;
  record.support_changes = delta.SupportChanges();
  record.crossings = delta.crossings_computed;
  obs::SlowLog::Global().Offer(record);
  return Status::Ok();
}

void QueryServer::AdvanceTo(double t) {
  MODB_CHECK_GE(t, now_);
  obs::TraceSpan span(obs::SpanName::kServerAdvance, obs::kTraceNoId, t,
                      engines_.size());
  for (auto& [key, group] : engines_) {
    group.engine->AdvanceTo(t);
  }
  now_ = t;
}

const std::set<ObjectId>& QueryServer::Answer(QueryId id) const {
  auto it = queries_.find(id);
  MODB_CHECK(it != queries_.end()) << "unknown query id " << id;
  const QueryRef& ref = it->second;
  const EngineGroup& group = engines_.at(ref.key);
  return ref.is_knn ? group.knn_kernels.at(id)->Current()
                    : group.within_kernels.at(id)->Current();
}

const AnswerTimeline& QueryServer::Timeline(QueryId id) const {
  auto it = queries_.find(id);
  MODB_CHECK(it != queries_.end()) << "unknown query id " << id;
  const QueryRef& ref = it->second;
  const EngineGroup& group = engines_.at(ref.key);
  return ref.is_knn ? group.knn_kernels.at(id)->timeline()
                    : group.within_kernels.at(id)->timeline();
}

double QueryServer::AnswerValue(QueryId id, ObjectId oid, double t) const {
  auto it = queries_.find(id);
  MODB_CHECK(it != queries_.end()) << "unknown query id " << id;
  return engines_.at(it->second.key).engine->state().CurveValue(oid, t);
}

void QueryServer::VisitEngines(
    const std::function<void(const std::string&, FutureQueryEngine&)>& fn) {
  for (auto& [key, group] : engines_) fn(key, *group.engine);
}

obs::QueryCostReport QueryServer::ExplainQuery(QueryId id) const {
  obs::QueryCostReport report;
  report.query_id = id;
  obs::QueryCostLedger::QuerySnapshot query;
  obs::QueryCostLedger::GroupSnapshot group;
  if (!ledger_->FindQuery(id, &query, &group)) return report;
  report.found = true;
  report.live = query.live;
  report.is_knn = query.is_knn;
  report.param = query.param;
  report.group_key = query.group_key;
  report.group_live_queries = group.live_queries;
  report.own = query.total;
  report.own_window = query.window;
  report.group = group.total;
  report.group_window = group.window;
  report.last_change_trace = query.total.last_change_trace;
  if (query.live) report.answer_size = Answer(id).size();
  return report;
}

std::vector<obs::TopEntry> QueryServer::TopQueries() const {
  std::map<std::string, obs::QueryCostLedger::GroupSnapshot> groups;
  for (obs::QueryCostLedger::GroupSnapshot& group : ledger_->Groups()) {
    groups.emplace(group.key, std::move(group));
  }
  std::vector<obs::TopEntry> out;
  for (const obs::QueryCostLedger::QuerySnapshot& query : ledger_->Queries()) {
    const obs::QueryCostLedger::GroupSnapshot& group =
        groups.at(query.group_key);
    obs::TopEntry entry;
    entry.id = query.id;
    entry.is_knn = query.is_knn;
    entry.param = query.param;
    entry.group_key = query.group_key;
    entry.live = query.live;
    if (query.live) entry.answer_size = Answer(query.id).size();
    entry.own = query.total;
    entry.cost_score =
        obs::CostScore(query.total, group.total, group.live_queries);
    entry.churn_score = obs::ChurnScore(query.total);
    out.push_back(std::move(entry));
  }
  return out;
}

SweepStats QueryServer::TotalStats() const {
  SweepStats total;
  for (const auto& [key, group] : engines_) total += group.engine->stats();
  return total;
}

}  // namespace modb
