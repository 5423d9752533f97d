// Shared-capacity accounting decorator over an ObjectStore.
//
// Check-N-Run runs as a fleet service: many training jobs checkpoint into one
// storage tier against a shared quota (paper §4.4, §7). The engine therefore
// needs a per-job view of who occupies how much of the store. This decorator
// keeps live byte/object counters per job — keys follow the
// "jobs/<job>/..." convention of storage::Manifest — updated on every Put and
// Delete that goes through it, so the checkpoint service can report per-job
// occupancy without listing the store.
//
// Optionally enforces a *shared* quota: when `quota_bytes` is non-zero, a Put
// that would push the tracked total past the quota throws QuotaExceeded
// before touching the backing store. QuotaExceeded is deliberately NOT a
// StoreUnavailable: blindly retrying cannot help — only GC (which runs
// between checkpoints and whose deletes are seen by this view) frees space.
//
// Scope note: the view counts what was written/deleted *through it*. Objects
// already in the backing store when the decorator is constructed are not
// attributed until someone seeds them: startup reconciliation
// (core::MaintenanceManager) surveys the store's manifests and calls
// SeedObject for every pre-existing object, after which the live view and the
// offline one (`cnr_inspect <dir> jobs`) agree — the occupancy-parity
// invariant documented in docs/MANIFEST_FORMAT.md.
//
// The view is also the service's lineage index. For every publication
// object written through it — a checkpoint's MANIFEST or a cut's COORD, the
// Put that makes a checkpoint or a cut valid — it keeps the header fields
// retention planning reads (PublicationRecord), decoded from the bytes being
// written. Post-commit GC (core::MaintenanceManager::GcAfterCommit) plans
// from these records plus one List of the job's prefix, instead of reading
// every manifest back. No other key is decoded, and the index holds no chunk
// list and no object bytes: it answers no Get.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "storage/manifest.h"
#include "storage/object_store.h"
#include "util/sync.h"

namespace cnr::storage {

// A Put was rejected because it would exceed the shared storage quota.
// Permanent from the writer's point of view: retry without freeing space
// (GC, deleting stale lineages) cannot succeed.
class QuotaExceeded : public std::runtime_error {
 public:
  explicit QuotaExceeded(const std::string& what) : std::runtime_error(what) {}
};

// Live occupancy of one job (or of the "" bucket for keys outside the
// jobs/<job>/ convention).
struct JobUsage {
  std::uint64_t bytes = 0;    // stored bytes currently attributed to the job
  std::uint64_t objects = 0;  // live objects
  std::uint64_t puts = 0;     // cumulative successful puts
  std::uint64_t deletes = 0;  // cumulative successful deletes
  std::uint64_t seeded = 0;   // objects attributed by reconciliation, not puts
  std::uint64_t gets = 0;           // cumulative successful (found) gets
  std::uint64_t bytes_fetched = 0;  // cumulative bytes returned by those gets
};

// What the lineage index keeps of one publication object (a MANIFEST or a
// COORD): the fields core::PlanRetention reads of it, never its chunk list.
struct PublicationRecord {
  std::uint64_t object_bytes = 0;  // the publication object's own size
  // False when the bytes do not decode as a manifest, or a COORD does not
  // hold a coordinated one. core::SurveyJob skips such keys; so does every
  // plan made from the index.
  bool readable = false;
  // MANIFEST: the checkpoint id, its kind and parent, and the chunk + dense
  // bytes the manifest names. COORD: the cut epoch (in `id`), the cut's
  // dense blob and its shard map.
  std::uint64_t id = 0;
  CheckpointKind kind = CheckpointKind::kFull;
  std::uint64_t parent_id = 0;
  std::uint64_t claimed_bytes = 0;
  std::string dense_key;
  std::uint64_t dense_bytes = 0;
  std::vector<ShardCutEntry> shard_map;

  // The record of publication object `key`, holding `m` in `object_bytes`.
  static PublicationRecord Of(std::string_view key, const Manifest& m,
                              std::uint64_t object_bytes);
  // Decodes `bytes`; an undecodable object yields an unreadable record.
  static PublicationRecord Decode(std::string_view key, std::span<const std::uint8_t> bytes);
};

class AccountingStore : public ObjectStore {
 public:
  // `quota_bytes` == 0 disables enforcement (accounting only).
  explicit AccountingStore(std::shared_ptr<ObjectStore> backing,
                           std::uint64_t quota_bytes = 0);

  void Put(const std::string& key, std::vector<std::uint8_t> data) override;
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override;
  bool Exists(const std::string& key) override;
  bool Delete(const std::string& key) override;
  std::vector<std::string> List(const std::string& prefix) override;
  std::uint64_t TotalBytes() override;
  StoreStats Stats() override;
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return backing_->SizeOf(key);
  }

  // Attributes an object that already exists in the backing store (startup
  // reconciliation): records `bytes` under `key` as if it had been written
  // through this view, without touching the backing store and without a
  // quota check — reality is not admission-controlled, only new writes are.
  // Idempotent: returns false (and changes nothing) if the key is already
  // tracked, so reconciling twice cannot double-count.
  bool SeedObject(const std::string& key, std::uint64_t bytes);

  // The lineage index under `prefix`: publication key -> record, for every
  // MANIFEST/COORD written through this view (or replaced in by
  // ReplacePublications) and not deleted since. A Put or Delete of a
  // publication key that throws drops the key's record, so a List then
  // disagrees with the index until a survey replaces it.
  std::map<std::string, PublicationRecord> Publications(const std::string& prefix) const;

  // Swaps the records under `prefix` for `records`: a survey's, read back
  // from the store, or none once a scrub found the job damaged. Publication
  // keys are written once by the service, so a survey's record can only
  // differ from a Put's by damage made outside this view — which the survey
  // saw.
  void ReplacePublications(const std::string& prefix,
                           std::map<std::string, PublicationRecord> records);

  // Occupancy of one job (zeroes if the job never wrote through this view).
  JobUsage Usage(const std::string& job) const;

  // Occupancy of every job that wrote through this view.
  std::map<std::string, JobUsage> UsageByJob() const;

  // Bytes currently attributed across all jobs (what the quota is checked
  // against; differs from TotalBytes() if the backing store was pre-seeded).
  std::uint64_t TrackedBytes() const;

  std::uint64_t quota_bytes() const { return quota_bytes_; }

  // "jobs/<job>/..." -> "<job>"; anything else -> "" (the default bucket).
  static std::string JobOfKey(const std::string& key);

 private:
  std::shared_ptr<ObjectStore> backing_;
  std::uint64_t quota_bytes_;

  // Reader/writer split: mutating ops (Put/Get/Delete/SeedObject/
  // ReplacePublications — Get mutates read-side counters) take the write
  // side; the pure queries (Usage/UsageByJob/TrackedBytes/Publications),
  // which the stats path and post-commit GC poll, share the read side. A leaf: never held across a backing-store call or a Decode.
  mutable util::SharedMutex mu_;
  std::map<std::string, std::uint64_t> sizes_ GUARDED_BY(mu_);  // key -> size
  std::map<std::string, JobUsage> usage_ GUARDED_BY(mu_);  // job -> occupancy
  std::uint64_t tracked_bytes_ GUARDED_BY(mu_) = 0;
  // The lineage index: publication key -> record.
  std::map<std::string, PublicationRecord> publications_ GUARDED_BY(mu_);
};

}  // namespace cnr::storage
