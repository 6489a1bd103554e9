//===- support/SealedFile.h - Envelope of persisted files -------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one envelope every on-disk payload travels in: compiled IR (`.mjo`),
/// native shared objects (`.mjn`), profile summaries (`profiles.mjp`) and
/// hibernated workspaces (`.mjws`). Each file is a fixed header followed by
/// the payload:
///
///   u32 magic | u32 format version | u64 stamp | u64 payload size |
///   u32 CRC32(payload) | payload
///
/// Loading walks a validation ladder - size cap, read, magic, format
/// version, stamp, payload size, checksum, then the caller's bounds-checked
/// payload decode - and classifies the file:
///
///   Ok      every rung passed;
///   Skew    the file belongs to another format version or stamp (another
///           engine build, compiler, or ABI): routine turnover, deleted
///           silently;
///   Corrupt any other rung failed: the file is renamed `*.corrupt` (the
///           bytes are evidence, and the rename takes the file out of its
///           namespace so the next load is clean), or removed if even the
///           rename fails.
///
/// Magic and version sit at bytes 0-7 in every format ever written, so a
/// file from an older format version always reaches the version rung and
/// skews out instead of being mistaken for corruption.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_SUPPORT_SEALEDFILE_H
#define MAJIC_SUPPORT_SEALEDFILE_H

#include "support/ByteStream.h"
#include "support/FaultInjection.h"

#include <cstdint>
#include <functional>
#include <string>

namespace majic {
namespace sealed {

/// One payload kind. Every field is a per-kind constant of the program.
struct Kind {
  uint32_t Magic;
  uint32_t Version;
  uint64_t Stamp;         ///< build/ABI fingerprint; a mismatch is skew
  uint64_t MaxFileBytes;  ///< larger files are damage, not data
  faults::Site LoadSite;  ///< fault site gating load() (throw and kill)
};

/// Bytes in front of the payload.
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4;

/// Raised by unseal() when the file's format version or stamp is not the
/// kind's: not corruption but turnover.
class SkewError : public ser::SerializeError {
public:
  using SerializeError::SerializeError;
};

/// Builds the file image: header, then whatever \p WritePayload appends.
/// The payload is written in place behind the header, never copied.
std::string seal(const Kind &K,
                 const std::function<void(ser::ByteWriter &)> &WritePayload);

/// Checks the header and checksum of \p Bytes and returns a reader over
/// the payload (a view into \p Bytes, which must outlive it). Throws
/// SkewError on a version or stamp mismatch and SerializeError on anything
/// else.
ser::ByteReader unseal(const Kind &K, const std::string &Bytes);

enum class Verdict { Ok, Corrupt, Skew };

/// Reads \p Path, unseals it and runs \p Decode over the payload (which
/// throws SerializeError on a malformed payload). Corrupt files are
/// quarantined and skewed ones deleted before returning; \p Reason, when
/// given, receives the failing rung's message. Never throws. The kind's
/// fault site fires (throw mode) before the read and is a kill point
/// between the read and the verdict.
Verdict load(const std::string &Path, const Kind &K,
             const std::function<void(ser::ByteReader &)> &Decode,
             std::string *Reason = nullptr);

} // namespace sealed
} // namespace majic

#endif // MAJIC_SUPPORT_SEALEDFILE_H
