#include "core/sharded_checkpoint.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/recovery.h"

namespace cnr::core {

namespace detail {

// Everything CutTicket::Wait needs after SubmitCut returned. The owning
// ShardedJobHandle must outlive the ticket (it holds the per-shard policies
// that failure feedback goes to).
struct CutState {
  CheckpointService* service = nullptr;
  std::string job;
  std::uint64_t epoch = 0;
  std::uint64_t batches_trained = 0;
  std::uint64_t samples_trained = 0;
  std::vector<std::uint8_t> reader_state;
  std::vector<std::uint8_t> dense_blob;

  struct ShardSub {
    std::uint32_t shard = 0;
    std::uint64_t checkpoint_id = 0;
    std::future<WriteResult> future;
  };
  std::vector<ShardSub> subs;

  std::vector<std::optional<IncrementalPolicy>>* policies = nullptr;
  bool gc = true;
  bool waited = false;
};

}  // namespace detail

// ------------------------------------------------------------ ticket --------

CutTicket::CutTicket(std::unique_ptr<detail::CutState> state) : state_(std::move(state)) {}
CutTicket::CutTicket(CutTicket&&) noexcept = default;
CutTicket& CutTicket::operator=(CutTicket&&) noexcept = default;
CutTicket::~CutTicket() = default;

std::uint64_t CutTicket::cut_epoch() const { return state_->epoch; }

CutResult CutTicket::Wait() {
  if (!state_ || state_->waited) {
    throw std::logic_error("CutTicket::Wait: already waited (or moved-from)");
  }
  state_->waited = true;
  auto& st = *state_;

  CutResult out;
  out.cut_epoch = st.epoch;
  for (auto& sub : st.subs) {
    try {
      const WriteResult r = sub.future.get();
      out.bytes_written += r.bytes_written;
      out.rows_written += r.rows_written;
      out.shard_map.push_back({sub.shard, sub.checkpoint_id});
    } catch (...) {
      out.failed_shards.push_back(sub.shard);
      // The shard's planned lineage can no longer be extended safely; its
      // policy re-baselines on the next cut (mirrors JobHandle::Submit).
      auto& policy = (*st.policies)[sub.shard];
      if (policy) policy->OnCheckpointFailed();
    }
  }
  if (!out.failed_shards.empty()) {
    // Torn cut: publish NOTHING. The committed shards' sub-checkpoints stay
    // in the store as unreferenced-by-any-cut lineage tips (the next
    // successful cut may chain over them); the previous COORD object remains
    // the newest valid cut, so recovery can never observe a half-cut.
    out.committed = false;
    out.shard_map.clear();
    return out;
  }

  // Coordinated commit, manifest-last at cut level: dense blob first, the
  // COORD manifest only after it landed.
  storage::Manifest m;
  m.checkpoint_id = st.epoch;
  m.kind = storage::CheckpointKind::kCoordinated;
  m.cut_epoch = st.epoch;
  m.batches_trained = st.batches_trained;
  m.samples_trained = st.samples_trained;
  m.reader_state = st.reader_state;
  std::sort(out.shard_map.begin(), out.shard_map.end(),
            [](const storage::ShardCutEntry& a, const storage::ShardCutEntry& b) {
              return a.shard_id < b.shard_id;
            });
  m.shard_map = out.shard_map;
  m.dense_key = storage::Manifest::CutDenseKey(st.job, st.epoch);
  m.dense_bytes = st.dense_blob.size();

  // Both Puts take the service's quota-eviction retry loop (the copy in each
  // attempt keeps the payload for the retry).
  MaintenanceManager& maintenance = st.service->maintenance();
  const auto put = [&](const std::string& key, const std::vector<std::uint8_t>& bytes) {
    maintenance.WithQuotaEviction(st.job, bytes.size() + 1,
                                  [&] { st.service->store().Put(key, bytes); });
  };
  put(m.dense_key, st.dense_blob);
  const auto manifest_bytes = m.Encode();
  put(storage::Manifest::CutKey(st.job, st.epoch), manifest_bytes);
  // The COORD landed: the survey sees the cut now and protects its shards'
  // chains and every newer id itself, so the job's pins can go.
  maintenance.Unpin(st.job);
  out.bytes_written += st.dense_blob.size() + manifest_bytes.size();
  out.committed = true;

  if (st.gc) {
    // Cut-aware GC of this job only: retention (keep_cuts) was registered
    // with the maintenance plane at OpenJob time; older cuts are deleted as
    // whole units (COORD + dense + exclusively-reachable sub-checkpoints).
    // If the newest cut's lineage is broken the GC deletes nothing and
    // throws; every shard re-baselines (mirrors JobHandle::Submit).
    try {
      maintenance.GcAfterCommit(st.job);
    } catch (...) {
      for (auto& policy : *st.policies) {
        if (policy) policy->OnCheckpointFailed();
      }
      throw;
    }
  }
  return out;
}

// ------------------------------------------------------------ handle --------

ShardedJobHandle::ShardedJobHandle(CheckpointService& service, dlrm::DlrmModel& model,
                                   ShardedJobConfig config)
    : service_(service), model_(model), cfg_(std::move(config)), tracker_(model) {
  num_shards_ = cfg_.num_shards != 0 ? cfg_.num_shards : model.config().num_shards;
  if (num_shards_ == 0) {
    throw std::invalid_argument("ShardedJobHandle: zero shards");
  }

  JobConfig jc;
  jc.name = cfg_.name;
  jc.weight = cfg_.weight;
  jc.priority = cfg_.priority;
  jc.keep_checkpoints = cfg_.keep_cuts;
  // The raw path: no whole-job policy, and GC runs once per committed cut
  // (CutTicket::Wait), not once per sub-checkpoint.
  jc.gc = false;
  jc.quantize = cfg_.quantize;
  jc.dynamic_bitwidth = false;
  jc.quant = cfg_.quant;
  jc.chunk_rows = cfg_.chunk_rows;
  jc.rng_seed = cfg_.rng_seed;
  job_ = service.OpenJob(std::move(jc));
  // Re-register with the cut retention (OpenJob registered keep_checkpoints,
  // which KeptLineages interprets as cuts for jobs with coordinated cuts).
  service.maintenance().RegisterJob(cfg_.name, cfg_.priority,
                                    std::max<std::size_t>(cfg_.keep_cuts, 1), 0);

  // One incremental policy per trainer shard, sized to the shard's local
  // rows. A global shard no table reaches (every table clamped below it)
  // stays policy-less and submits nothing.
  policies_.reserve(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::uint64_t shard_rows = 0;
    for (std::size_t t = 0; t < model.num_tables(); ++t) {
      const auto& table = model.table(t);
      if (s < table.num_shards()) shard_rows += table.Shard(s).num_rows();
    }
    if (shard_rows == 0) {
      policies_.emplace_back(std::nullopt);
    } else {
      policies_.emplace_back(IncrementalPolicy(cfg_.policy, shard_rows, cfg_.policy_options));
    }
  }

  // Resume numbering after a restart: sub-checkpoint ids and cut epochs both
  // move strictly forward past whatever the store already holds.
  if (const auto latest = LatestCheckpointId(service.store(), cfg_.name)) {
    next_checkpoint_id_ = *latest + 1;
  }
  if (const auto latest_cut = LatestCutEpoch(service.store(), cfg_.name)) {
    next_cut_epoch_ = *latest_cut + 1;
  }
}

ShardedJobHandle::~ShardedJobHandle() {
  job_.reset();  // drains the job's in-flight sub-checkpoints
  service_.maintenance().Unpin(cfg_.name);
}

CutTicket ShardedJobHandle::SubmitCut(std::uint64_t batches_trained,
                                      std::uint64_t samples_trained,
                                      std::vector<std::uint8_t> reader_state) {
  auto state = std::make_unique<detail::CutState>();
  state->service = &service_;
  state->job = cfg_.name;
  state->batches_trained = batches_trained;
  state->samples_trained = samples_trained;
  state->reader_state = std::move(reader_state);
  state->policies = &policies_;
  state->gc = cfg_.gc;

  quant::QuantConfig effective = cfg_.quant;
  if (!cfg_.quantize) effective.method = quant::Method::kNone;

  // The cut is one admission unit: everything below runs only after the
  // service granted it, and its shard members share the one grant.
  const UnitThunk take_cut = [&] {
    // THE consistent cut: one whole-model snapshot (the trainer stall),
    // plus the interval's dirty bits, both taken atomically with respect to
    // training (single trainer thread — the same contract as JobHandle).
    DirtySets dirty = tracker_.HarvestInterval();
    ModelSnapshot snap = CreateSnapshot(model_, batches_trained, samples_trained,
                                        /*pool=*/nullptr);
    state->epoch = next_cut_epoch_++;
    state->dense_blob = std::move(snap.dense_blob);

    std::vector<UnitMember> members;
    for (std::size_t s = 0; s < num_shards_; ++s) {
      if (!policies_[s]) continue;  // no table reaches this shard

      // Split the cut: shard s's slice of every table it appears in, with
      // the matching dirty bits — shapes stay parallel ([table][0 or 1]) so
      // BuildChunkTasks walks snapshot and plan in lock-step.
      UnitMember member;
      ModelSnapshot& piece = member.snapshot;
      piece.batches_trained = batches_trained;
      piece.samples_trained = samples_trained;
      piece.shards.resize(model_.num_tables());
      DirtySets piece_dirty(model_.num_tables());
      for (std::size_t t = 0; t < model_.num_tables(); ++t) {
        if (s < model_.table(t).num_shards()) {
          piece.shards[t].push_back(std::move(snap.shards[t][s]));
          piece_dirty[t].push_back(std::move(dirty[t][s]));
        }
      }

      // Sub-checkpoints carry no reader state and no dense blob: the cut
      // manifest owns both (dense is replicated across trainers — CPR).
      const std::uint64_t id = next_checkpoint_id_++;
      CheckpointRequest& req = member.request;
      req.checkpoint_id = id;
      req.writer.job = cfg_.name;
      req.writer.chunk_rows = cfg_.chunk_rows;
      req.writer.quant = effective;
      req.writer.rng_seed = cfg_.rng_seed;
      req.plan = policies_[s]->Plan(id, std::move(piece_dirty));
      members.push_back(std::move(member));
      state->subs.push_back({static_cast<std::uint32_t>(s), id, {}});
    }
    // Until a COORD ties them into a cut, the survey sees these ids as a
    // plain job's stale lineages; pinned, no GC or quota eviction takes
    // them (or, later, the torn-cut leftovers the next cut chains over).
    std::vector<std::uint64_t> ids;
    for (const auto& sub : state->subs) ids.push_back(sub.checkpoint_id);
    service_.maintenance().Pin(cfg_.name, ids);
    return members;
  };

  std::vector<std::future<WriteResult>> futures;
  try {
    futures = job_->SubmitUnit(take_cut);
  } catch (...) {
    // Not admitted (service stopping) or the cut failed part-way: shards
    // may have planned ids that will never exist, so every shard
    // re-baselines (mirrors JobHandle::Submit).
    for (auto& policy : policies_) {
      if (policy) policy->OnCheckpointFailed();
    }
    throw;
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    state->subs[i].future = std::move(futures[i]);
  }
  return CutTicket(std::move(state));
}

CutResult ShardedJobHandle::WriteCut(std::uint64_t batches_trained,
                                     std::uint64_t samples_trained,
                                     std::vector<std::uint8_t> reader_state) {
  return SubmitCut(batches_trained, samples_trained, std::move(reader_state)).Wait();
}

// ------------------------------------------------------ restore plane -------

std::optional<std::uint64_t> LatestCutEpoch(storage::ObjectStore& store,
                                            const std::string& job) {
  const std::string prefix = storage::Manifest::JobPrefix(job) + "cut/";
  std::optional<std::uint64_t> latest;
  for (const auto& key : store.List(prefix)) {
    if (!key.ends_with("/COORD")) continue;
    const auto epoch = storage::Manifest::ParseId(key, prefix);
    if (!epoch || key != storage::Manifest::CutKey(job, *epoch)) continue;  // stray key
    if (!latest || *epoch > *latest) latest = epoch;
  }
  return latest;
}

storage::Manifest LoadCutManifest(storage::ObjectStore& store, const std::string& job,
                                  std::uint64_t cut_epoch) {
  const auto blob = store.Get(storage::Manifest::CutKey(job, cut_epoch));
  if (!blob) {
    throw std::runtime_error("recovery: no coordinated cut " + std::to_string(cut_epoch) +
                             " for job " + job);
  }
  auto m = storage::Manifest::Decode(*blob);
  if (m.kind != storage::CheckpointKind::kCoordinated) {
    throw std::runtime_error("recovery: cut object of epoch " + std::to_string(cut_epoch) +
                             " is not a coordinated manifest");
  }
  return m;
}

ShardedRestoreResult RestorePartial(storage::ObjectStore& store, const std::string& job,
                                    dlrm::DlrmModel& model,
                                    const std::vector<std::uint32_t>& shard_ids,
                                    std::optional<std::uint64_t> cut_epoch,
                                    const pipeline::RestoreConfig& config) {
  if (!cut_epoch) {
    cut_epoch = LatestCutEpoch(store, job);
    if (!cut_epoch) throw std::runtime_error("recovery: job has no coordinated cut: " + job);
  }
  const storage::Manifest cut = LoadCutManifest(store, job, *cut_epoch);

  ShardedRestoreResult out;
  out.cut_epoch = cut.cut_epoch;
  out.batches_trained = cut.batches_trained;
  out.samples_trained = cut.samples_trained;
  out.reader_state = cut.reader_state;

  ModelApplier applier(model);
  const std::set<std::uint32_t> wanted(shard_ids.begin(), shard_ids.end());
  for (const std::uint32_t shard : wanted) {
    const auto entry = std::find_if(cut.shard_map.begin(), cut.shard_map.end(),
                                    [shard](const storage::ShardCutEntry& e) {
                                      return e.shard_id == shard;
                                    });
    if (entry == cut.shard_map.end()) {
      throw std::invalid_argument("recovery: shard " + std::to_string(shard) +
                                  " is not in cut " + std::to_string(cut.cut_epoch) +
                                  "'s shard map");
    }
    // Only this shard's chain: its sub-checkpoints have empty dense keys, so
    // the pipeline fetches exactly the shard's chunk objects — nothing else.
    auto outcome = pipeline::RunRestorePipeline(store, job, entry->checkpoint_id, applier,
                                                config);
    out.shards_restored.push_back(shard);
    out.checkpoints_applied += outcome.chain.size();
    out.rows_applied += outcome.rows_applied;
    out.bytes_read += outcome.bytes_read;
    out.timings.resolve_us += outcome.timings.resolve_us;
    out.timings.fetch_us += outcome.timings.fetch_us;
    out.timings.decode_us += outcome.timings.decode_us;
    out.timings.apply_us += outcome.timings.apply_us;
    out.timings.fetch_queue_us += outcome.timings.fetch_queue_us;
    out.timings.decode_queue_us += outcome.timings.decode_queue_us;
    out.timings.apply_queue_us += outcome.timings.apply_queue_us;
    out.timings.restore_wall_us += outcome.timings.restore_wall_us;
  }
  return out;
}

ShardedRestoreResult RestoreShardedModel(storage::ObjectStore& store, const std::string& job,
                                         dlrm::DlrmModel& model,
                                         std::optional<std::uint64_t> cut_epoch,
                                         const pipeline::RestoreConfig& config) {
  if (!cut_epoch) {
    cut_epoch = LatestCutEpoch(store, job);
    if (!cut_epoch) throw std::runtime_error("recovery: job has no coordinated cut: " + job);
  }
  const storage::Manifest cut = LoadCutManifest(store, job, *cut_epoch);
  std::vector<std::uint32_t> all;
  all.reserve(cut.shard_map.size());
  for (const auto& e : cut.shard_map) all.push_back(e.shard_id);

  ShardedRestoreResult out = RestorePartial(store, job, model, all, cut_epoch, config);

  // Full restore also needs the cut's dense blob (a partial restore does
  // not: dense MLP state is replicated across trainers).
  if (!cut.dense_key.empty()) {
    const auto dense = store.Get(cut.dense_key);
    if (!dense) throw std::runtime_error("recovery: missing cut dense blob " + cut.dense_key);
    ModelApplier applier(model);
    applier.ApplyDense(*dense);
    out.bytes_read += dense->size();
  }
  return out;
}

}  // namespace cnr::core
