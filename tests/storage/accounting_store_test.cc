#include "storage/accounting_store.h"

#include <gtest/gtest.h>

#include <memory>

#include "storage/fault_injection.h"
#include "storage/manifest.h"

namespace cnr::storage {
namespace {

std::vector<std::uint8_t> Bytes(std::size_t n) { return std::vector<std::uint8_t>(n, 7); }

TEST(AccountingStore, JobOfKeyFollowsManifestConvention) {
  EXPECT_EQ(AccountingStore::JobOfKey("jobs/alpha/ckpt/000000000001/MANIFEST"), "alpha");
  EXPECT_EQ(AccountingStore::JobOfKey("jobs/a/dense"), "a");
  EXPECT_EQ(AccountingStore::JobOfKey("jobs/noslash"), "");
  EXPECT_EQ(AccountingStore::JobOfKey("other/alpha/x"), "");
  EXPECT_EQ(AccountingStore::JobOfKey(""), "");
}

TEST(AccountingStore, TracksPerJobBytesAcrossPutReplaceDelete) {
  AccountingStore store(std::make_shared<InMemoryStore>());
  store.Put("jobs/a/ckpt/1/c0", Bytes(100));
  store.Put("jobs/a/ckpt/1/c1", Bytes(50));
  store.Put("jobs/b/ckpt/1/c0", Bytes(30));
  store.Put("misc", Bytes(5));

  EXPECT_EQ(store.Usage("a").bytes, 150u);
  EXPECT_EQ(store.Usage("a").objects, 2u);
  EXPECT_EQ(store.Usage("b").bytes, 30u);
  EXPECT_EQ(store.Usage("").bytes, 5u);
  EXPECT_EQ(store.TrackedBytes(), 185u);
  EXPECT_EQ(store.TrackedBytes(), store.TotalBytes());

  // Replacement adjusts, it does not double-count.
  store.Put("jobs/a/ckpt/1/c0", Bytes(10));
  EXPECT_EQ(store.Usage("a").bytes, 60u);
  EXPECT_EQ(store.Usage("a").objects, 2u);
  EXPECT_EQ(store.Usage("a").puts, 3u);

  // Deletes return the bytes to the pool.
  EXPECT_TRUE(store.Delete("jobs/a/ckpt/1/c1"));
  EXPECT_EQ(store.Usage("a").bytes, 10u);
  EXPECT_EQ(store.Usage("a").objects, 1u);
  EXPECT_EQ(store.Usage("a").deletes, 1u);
  EXPECT_FALSE(store.Delete("jobs/a/ckpt/1/c1"));
  EXPECT_EQ(store.Usage("a").deletes, 1u);

  const auto usage = store.UsageByJob();
  EXPECT_EQ(usage.size(), 3u);  // a, b, and the "" bucket
  EXPECT_EQ(store.TrackedBytes(), 45u);
}

TEST(AccountingStore, SharedQuotaRejectsBeforeTouchingTheBackingStore) {
  auto inner = std::make_shared<InMemoryStore>();
  AccountingStore store(inner, /*quota_bytes=*/100);
  store.Put("jobs/a/x", Bytes(60));
  store.Put("jobs/b/x", Bytes(40));  // exactly at quota: allowed

  EXPECT_THROW(store.Put("jobs/c/x", Bytes(1)), QuotaExceeded);
  EXPECT_FALSE(inner->Exists("jobs/c/x")) << "a rejected put must not reach the backing";
  EXPECT_EQ(store.TrackedBytes(), 100u);

  // Replacing an object only charges the delta.
  EXPECT_NO_THROW(store.Put("jobs/a/x", Bytes(60)));
  EXPECT_THROW(store.Put("jobs/a/x", Bytes(61)), QuotaExceeded);

  // Freeing space (GC) makes the put admissible again.
  EXPECT_TRUE(store.Delete("jobs/b/x"));
  EXPECT_NO_THROW(store.Put("jobs/c/x", Bytes(40)));
  EXPECT_EQ(store.TrackedBytes(), 100u);
}

TEST(AccountingStore, ReadsAndMetadataPassThrough) {
  auto inner = std::make_shared<InMemoryStore>();
  inner->Put("preexisting", Bytes(11));  // written around the view
  AccountingStore store(inner);
  store.Put("jobs/a/x", Bytes(3));

  EXPECT_TRUE(store.Exists("preexisting"));
  EXPECT_EQ(store.Get("jobs/a/x")->size(), 3u);
  EXPECT_EQ(store.List("").size(), 2u);
  EXPECT_EQ(store.TotalBytes(), 14u);   // backing truth
  EXPECT_EQ(store.TrackedBytes(), 3u);  // only what went through the view
  EXPECT_EQ(store.Stats().puts, 2u);
}

TEST(AccountingStore, SeedObjectAttributesPreexistingObjectsIdempotently) {
  auto inner = std::make_shared<InMemoryStore>();
  inner->Put("jobs/a/ckpt/1/c0", Bytes(100));  // written around the view
  AccountingStore store(inner);

  EXPECT_TRUE(store.SeedObject("jobs/a/ckpt/1/c0", 100));
  EXPECT_EQ(store.Usage("a").bytes, 100u);
  EXPECT_EQ(store.Usage("a").objects, 1u);
  EXPECT_EQ(store.Usage("a").seeded, 1u);
  EXPECT_EQ(store.Usage("a").puts, 0u) << "seeding is not a put";
  EXPECT_EQ(store.TrackedBytes(), 100u);

  // Reconciling twice cannot double-count.
  EXPECT_FALSE(store.SeedObject("jobs/a/ckpt/1/c0", 100));
  EXPECT_EQ(store.TrackedBytes(), 100u);

  // A key written through the view is already tracked: seeding skips it.
  store.Put("jobs/b/x", Bytes(7));
  EXPECT_FALSE(store.SeedObject("jobs/b/x", 7));
  EXPECT_EQ(store.Usage("b").seeded, 0u);

  // Deleting a seeded object returns its bytes like any other.
  EXPECT_TRUE(store.Delete("jobs/a/ckpt/1/c0"));
  EXPECT_EQ(store.Usage("a").bytes, 0u);
  EXPECT_EQ(store.TrackedBytes(), 7u);
}

TEST(AccountingStore, SeedingIsNotQuotaChecked) {
  auto inner = std::make_shared<InMemoryStore>();
  AccountingStore store(inner, /*quota_bytes=*/100);
  // Reality already exists: seeding may exceed the quota without throwing...
  EXPECT_TRUE(store.SeedObject("jobs/a/old", 150));
  EXPECT_EQ(store.TrackedBytes(), 150u);
  // ...and new writes are then rejected until space is freed.
  EXPECT_THROW(store.Put("jobs/b/x", Bytes(1)), QuotaExceeded);
  // The seed described an object the backing store never had (out-of-band
  // delete): Delete reports it absent and frees nothing.
  EXPECT_FALSE(store.Delete("jobs/a/old"));
  EXPECT_EQ(store.TrackedBytes(), 150u);
}

// The lineage index keeps a header for MANIFEST and COORD objects only,
// decoded from the bytes written: an undecodable one is kept as unreadable,
// and a Put or Delete that throws forgets the key.
TEST(AccountingStore, LineageIndexRecordsPublicationObjectsOnly) {
  auto inner = std::make_shared<InMemoryStore>();
  auto faulty = std::make_shared<FaultInjectionStore>(inner, FaultConfig{});
  AccountingStore store(faulty, /*quota_bytes=*/1 << 20);

  Manifest m;
  m.checkpoint_id = 2;
  m.kind = CheckpointKind::kIncremental;
  m.parent_id = 1;
  m.dense_key = Manifest::DenseKey("a", 2);
  m.dense_bytes = 5;
  m.chunks.push_back({Manifest::ChunkKey("a", 2, 0, 0, 0), 0, 0, 4, 30});
  const auto manifest = m.Encode();
  store.Put(Manifest::ManifestKey("a", 2), manifest);
  Manifest cut;
  cut.kind = CheckpointKind::kCoordinated;
  cut.cut_epoch = 7;
  cut.dense_key = Manifest::CutDenseKey("a", 7);
  cut.dense_bytes = 9;
  cut.shard_map = {{0, 2}, {1, 3}};
  store.Put(Manifest::CutKey("a", 7), cut.Encode());
  store.Put(Manifest::ChunkKey("a", 2, 0, 0, 0), Bytes(30));  // not a publication
  store.Put(Manifest::ManifestKey("a", 3), Bytes(3));         // undecodable
  store.Put(Manifest::ManifestKey("b", 1), manifest);         // another job

  auto records = store.Publications(Manifest::JobPrefix("a"));
  ASSERT_EQ(records.size(), 3u);
  const PublicationRecord& r2 = records.at(Manifest::ManifestKey("a", 2));
  EXPECT_TRUE(r2.readable);
  EXPECT_EQ(r2.id, 2u);
  EXPECT_EQ(r2.kind, CheckpointKind::kIncremental);
  EXPECT_EQ(r2.parent_id, 1u);
  EXPECT_EQ(r2.claimed_bytes, 35u);
  EXPECT_EQ(r2.object_bytes, manifest.size());
  const PublicationRecord& r7 = records.at(Manifest::CutKey("a", 7));
  EXPECT_TRUE(r7.readable);
  EXPECT_EQ(r7.id, 7u);
  EXPECT_EQ(r7.dense_key, Manifest::CutDenseKey("a", 7));
  EXPECT_EQ(r7.dense_bytes, 9u);
  ASSERT_EQ(r7.shard_map.size(), 2u);
  EXPECT_EQ(r7.shard_map[1].checkpoint_id, 3u);
  EXPECT_FALSE(records.at(Manifest::ManifestKey("a", 3)).readable);

  // A Delete forgets the key; so do a quota rejection and a failed Put.
  EXPECT_TRUE(store.Delete(Manifest::ManifestKey("a", 3)));
  EXPECT_THROW(store.Put(Manifest::CutKey("a", 7), Bytes(2 << 20)), QuotaExceeded);
  faulty->SetConfig(FaultConfig{.fail_nth_put = 1});
  EXPECT_THROW(store.Put(Manifest::ManifestKey("a", 2), manifest), StoreUnavailable);
  EXPECT_TRUE(store.Publications(Manifest::JobPrefix("a")).empty());
  EXPECT_TRUE(inner->Exists(Manifest::ManifestKey("a", 2)))
      << "the object outlives its record: a List now disagrees with the index";

  // A survey's records replace a prefix's.
  store.ReplacePublications(Manifest::JobPrefix("b"), {});
  EXPECT_TRUE(store.Publications("jobs/").empty());
}

TEST(AccountingStore, NullBackingThrows) {
  EXPECT_THROW(AccountingStore(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace cnr::storage
