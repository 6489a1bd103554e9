//===- support/SealedFile.cpp - The envelope of every persisted file -------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/SealedFile.h"

#include "support/AtomicFile.h"
#include "support/Hashing.h"

#include <filesystem>

using namespace majic;
namespace fs = std::filesystem;

namespace {

/// Offset of the payload-size and CRC fields, filled in after the payload.
constexpr size_t kSizeOffset = 4 + 4 + 8;

} // namespace

std::string
sealed::seal(const Kind &K,
             const std::function<void(ser::ByteWriter &)> &WritePayload) {
  ser::ByteWriter W;
  W.u32(K.Magic);
  W.u32(K.Version);
  W.u64(K.Stamp);
  W.u64(0); // payload size, patched below
  W.u32(0); // CRC32, patched below
  WritePayload(W);
  std::string File = W.take();

  size_t PayloadSize = File.size() - kHeaderBytes;
  ser::ByteWriter Tail;
  Tail.u64(PayloadSize);
  Tail.u32(hashing::crc32(static_cast<const void *>(File.data() + kHeaderBytes),
                          PayloadSize));
  File.replace(kSizeOffset, Tail.bytes().size(), Tail.bytes());
  return File;
}

ser::ByteReader sealed::unseal(const Kind &K, const std::string &Bytes) {
  ser::ByteReader R(Bytes);
  if (R.u32() != K.Magic)
    throw ser::SerializeError("bad magic");
  uint32_t Version = R.u32();
  if (Version != K.Version)
    throw SkewError("format version " + std::to_string(Version) +
                    " (want " + std::to_string(K.Version) + ")");
  if (R.u64() != K.Stamp)
    throw SkewError("stamp skew");
  uint64_t PayloadSize = R.u64();
  uint32_t Crc = R.u32();
  if (PayloadSize != R.remaining())
    throw ser::SerializeError("payload size mismatch");
  const void *Payload = Bytes.data() + kHeaderBytes;
  if (hashing::crc32(Payload, R.remaining()) != Crc)
    throw ser::SerializeError("checksum mismatch");
  return ser::ByteReader(Payload, R.remaining());
}

sealed::Verdict
sealed::load(const std::string &Path, const Kind &K,
             const std::function<void(ser::ByteReader &)> &Decode,
             std::string *Reason) {
  Verdict V = Verdict::Corrupt;
  std::string Why = "unknown";
  try {
    faults::maybeThrow(K.LoadSite);
    std::error_code SzEC;
    uint64_t Size = fs::file_size(Path, SzEC);
    if (SzEC || Size > K.MaxFileBytes)
      throw ser::SerializeError("unreadable or oversized file");
    std::string Bytes;
    if (!atomicfile::readFile(Path, Bytes))
      throw ser::SerializeError("cannot read file");
    faults::killPoint(K.LoadSite);
    ser::ByteReader R = unseal(K, Bytes);
    Decode(R);
    V = Verdict::Ok;
  } catch (const SkewError &E) {
    V = Verdict::Skew;
    Why = E.what();
  } catch (const std::exception &E) {
    Why = E.what();
  } catch (...) {
    // Corrupt, with the default reason.
  }

  std::error_code IgnoredEC;
  if (V == Verdict::Corrupt) {
    fs::rename(Path, Path + ".corrupt", IgnoredEC);
    if (IgnoredEC)
      fs::remove(Path, IgnoredEC);
  } else if (V == Verdict::Skew) {
    fs::remove(Path, IgnoredEC);
  }
  if (Reason)
    *Reason = Why;
  return V;
}
