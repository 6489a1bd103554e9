//===- runtime/ValueSerialize.h - Workspace snapshots ----------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary (de)serialization of interactive workspaces for session
/// hibernation: when the service's live-session cap is hit, an idle
/// session's state is snapshotted to disk (`.mjws`) and its slot freed; a
/// later request resurrects it transparently. MaJIC's responsiveness story
/// assumes an interactive session whose state survives the compiler's
/// adventures, so the snapshot travels in the same sealed envelope as the
/// code store's files (support/SealedFile.h): a torn or rotted snapshot is
/// classified corrupt (quarantine on disk, session restarts empty with a
/// loud error) rather than ever admitted, and one from another format
/// version is routine turnover, deleted silently.
///
/// The payload is self-contained: the session's interactive function
/// definitions (source text, replayed through the engine so compiled code
/// comes back from the shared cache) followed by the workspace variables.
/// Values round-trip bit-identically - doubles are moved as raw IEEE bits,
/// so NaN payloads and signed zeros survive - because the acceptance bar
/// for hibernation is that a resurrected session is indistinguishable from
/// one that never left memory.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_RUNTIME_VALUESERIALIZE_H
#define MAJIC_RUNTIME_VALUESERIALIZE_H

#include "runtime/Value.h"
#include "support/ByteStream.h"
#include "support/SealedFile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace majic {
namespace ser {

/// The workspace snapshot envelope. A workspace carries no ABI beyond the
/// Value model, so the stamp is a constant and only the version bumps, when
/// the payload layout below changes. Oversized files are rejected before
/// reading: a torn length field must not drive a giant allocation.
constexpr sealed::Kind kWorkspaceFile = {
    .Magic = 0x53574a4d, // "MJWS" little-endian
    .Version = 2,
    .Stamp = 0x73772d63696a616dull, // "majic-ws" little-endian
    .MaxFileBytes = 1ull << 30,
    .LoadSite = faults::Site::SessionSnapshotLoad,
};

/// Everything a session needs to come back from disk: the interactive
/// function definitions in submission order and the workspace variables
/// (sorted by name so identical workspaces encode to identical bytes).
struct WorkspaceImage {
  struct SourceDef {
    std::string Name; ///< module name at definition time (diagnostic only)
    std::string Text; ///< the source replayed on resurrect
  };
  struct VarDef {
    std::string Name;
    ValuePtr V;
  };
  std::vector<SourceDef> Sources;
  std::vector<VarDef> Vars;
};

/// Encodes one Value. Exposed (with readValue) so the fuzz tests can
/// attack the per-value layout directly.
void writeValue(ByteWriter &W, const Value &V);

/// Decodes one Value; throws SerializeError on any malformed encoding
/// (bad class, shape overflow, data overrunning the buffer, an imaginary
/// flag disagreeing with the class).
Value readValue(ByteReader &R);

/// Decodes a snapshot payload (the envelope already removed), consuming
/// all of \p R; throws SerializeError on a malformed payload, a
/// non-identifier variable name, or trailing bytes.
WorkspaceImage readWorkspaceImage(ByteReader &R);

/// Full snapshot file: sealed envelope + payload.
std::string encodeWorkspaceImage(const WorkspaceImage &W);

/// Unseals and decodes a full snapshot file; throws sealed::SkewError on a
/// version or stamp mismatch and SerializeError on everything else.
WorkspaceImage decodeWorkspaceImage(const std::string &Bytes);

} // namespace ser
} // namespace majic

#endif // MAJIC_RUNTIME_VALUESERIALIZE_H
