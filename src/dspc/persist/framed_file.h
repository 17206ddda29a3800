// CRC32C-framed small files, persist-internal: MANIFEST, SHIPSTATE,
// PUBSTATE and the publisher's pin files all use this one codec. A
// framed file is its payload followed by the payload's CRC32C as a
// 4-byte little-endian trailer. Checkpoints are not framed: they are
// snapshot arena files, checked by the arena's own per-section CRCs
// (persist/snapshot_arena.h).

#ifndef DSPC_PERSIST_FRAMED_FILE_H_
#define DSPC_PERSIST_FRAMED_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dspc/common/binary_io.h"
#include "dspc/common/status.h"
#include "dspc/persist/env.h"

namespace dspc {

/// Writes `payload` + CRC32C trailer to dir/name atomically: write
/// dir/name.tmp, fsync, close, rename. The directory fsync is the
/// caller's, so one publish can batch it with its other renames.
Status WriteFramedFileAtomic(FileSystem* fs, const std::string& dir,
                             const std::string& name,
                             const std::vector<uint8_t>& payload);

/// Reads the framed file at `path` into a BinaryReader over its payload;
/// kDataLoss when the CRC32C trailer does not match.
Status ReadFramedFile(FileSystem* fs, const std::string& path,
                      BinaryReader* out);

}  // namespace dspc

#endif  // DSPC_PERSIST_FRAMED_FILE_H_
