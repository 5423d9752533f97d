// Checkpoint publication — the manifest-last validity rule, in one place.
//
// Check-N-Run's controller declares a checkpoint valid only after every chunk
// and the manifest have been stored (paper §4.4 step 3): *a checkpoint is
// valid iff its manifest object exists*. Recovery (core/recovery.h) relies on
// exactly this — it enumerates MANIFEST keys and never considers anything
// else. Every write path (the staged pipeline's CommitStage and the serial
// reference writer WriteCheckpoint) must publish through CommitCheckpoint
// so the ordering cannot be broken in one code path and kept in another.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/manifest.h"
#include "storage/object_store.h"

namespace cnr::core::pipeline {

struct CommitResult {
  std::uint64_t manifest_bytes = 0;  // size of the stored manifest object
};

// Publishes a checkpoint whose chunks are already stored and recorded in
// `manifest`: writes the dense blob, then — last — the manifest. Stamps
// manifest.dense_key/dense_bytes and manifest.timings.commit_us (the dense
// publication wall; the manifest write itself cannot time-stamp its own
// payload). Throws without having written the manifest if any put fails, so
// a failed checkpoint is never declared valid.
CommitResult CommitCheckpoint(storage::ObjectStore& store, const std::string& job,
                              storage::Manifest& manifest,
                              const std::vector<std::uint8_t>& dense_blob);

}  // namespace cnr::core::pipeline
