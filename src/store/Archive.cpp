//===- store/Archive.cpp - Versioned binary archive I/O ------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "store/Archive.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

using namespace clgen;
using namespace clgen::store;

static constexpr uint32_t ArchiveMagic = 0x53474C43u; // 'CLGS' LE.

uint64_t store::fnv1a64(const void *Data, size_t Size, uint64_t Seed) {
  const auto *P = static_cast<const uint8_t *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I < Size; ++I) {
    H ^= P[I];
    H *= 0x100000001B3ull;
  }
  return H;
}

std::string store::hexDigest(uint64_t Digest) {
  static const char Hex[] = "0123456789abcdef";
  std::string S(16, '0');
  for (int I = 15; I >= 0; --I) {
    S[I] = Hex[Digest & 0xF];
    Digest >>= 4;
  }
  return S;
}

//===----------------------------------------------------------------------===//
// ArchiveWriter
//===----------------------------------------------------------------------===//

void ArchiveWriter::writeU32(uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Payload.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void ArchiveWriter::writeU64(uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Payload.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void ArchiveWriter::writeF32(float V) {
  uint32_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  writeU32(Bits);
}

void ArchiveWriter::writeF64(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  writeU64(Bits);
}

void ArchiveWriter::writeString(std::string_view S) {
  writeU64(S.size());
  writeBytes(S.data(), S.size());
}

void ArchiveWriter::writeBytes(const void *Data, size_t Size) {
  const auto *P = static_cast<const uint8_t *>(Data);
  Payload.insert(Payload.end(), P, P + Size);
}

void ArchiveWriter::writeF32Vector(const std::vector<float> &V) {
  writeU64(V.size());
  for (float X : V)
    writeF32(X);
}

void ArchiveWriter::writeF64Vector(const std::vector<double> &V) {
  writeU64(V.size());
  for (double X : V)
    writeF64(X);
}

uint64_t ArchiveWriter::payloadDigest() const {
  return fnv1a64(Payload.data(), Payload.size());
}

std::vector<uint8_t> ArchiveWriter::finalize() const {
  ArchiveWriter Header(Kind);
  Header.writeU32(ArchiveMagic);
  Header.writeU32(FormatVersion);
  Header.writeU32(static_cast<uint32_t>(Kind));
  Header.writeU64(Payload.size());
  std::vector<uint8_t> Out = std::move(Header.Payload);
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  // The trailer digests header || payload (v3): every byte of the file
  // is under the checksum, so even kind-agnostic validation catches a
  // corrupted header field.
  uint64_t Checksum = fnv1a64(Out.data(), Out.size());
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(Checksum >> (8 * I)));
  return Out;
}

Status ArchiveWriter::saveTo(const std::string &Path) const {
  std::vector<uint8_t> Bytes = finalize();

  // Unique temp name in the destination directory so the final rename is
  // within one filesystem and concurrent writers never collide.
  static std::atomic<uint64_t> TempCounter{0};
  uint64_t Unique =
      fnv1a64(Path.data(), Path.size(),
              0x9E3779B97F4A7C15ull + TempCounter.fetch_add(1));
  std::string TempPath = Path + ".tmp." + hexDigest(Unique);

  std::FILE *F = std::fopen(TempPath.c_str(), "wb");
  if (!F)
    return Status::error("cannot open temp file for writing: " + TempPath);
  size_t Written = Bytes.empty()
                       ? 0
                       : std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  bool WriteOk = Written == Bytes.size() && std::fflush(F) == 0;
  WriteOk = std::fclose(F) == 0 && WriteOk;
  if (!WriteOk) {
    std::remove(TempPath.c_str());
    return Status::error("short write to temp file: " + TempPath);
  }

  std::error_code Ec;
  std::filesystem::rename(TempPath, Path, Ec);
  if (Ec) {
    std::remove(TempPath.c_str());
    return Status::error("rename into place failed: " + Path + ": " +
                         Ec.message());
  }
  return Status();
}

//===----------------------------------------------------------------------===//
// ArchiveReader
//===----------------------------------------------------------------------===//

bool store::readFileBytes(const std::string &Path,
                          std::vector<uint8_t> &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  Out.clear();
  uint8_t Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.insert(Out.end(), Buf, Buf + N);
  bool Ok = std::ferror(F) == 0;
  std::fclose(F);
  return Ok;
}

static uint32_t peekU32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 |
         static_cast<uint32_t>(P[3]) << 24;
}

static uint64_t peekU64(const uint8_t *P) {
  return static_cast<uint64_t>(peekU32(P)) |
         static_cast<uint64_t>(peekU32(P + 4)) << 32;
}

const char *store::archiveKindName(uint32_t Kind) {
  switch (static_cast<ArchiveKind>(Kind)) {
  case ArchiveKind::Model:
    return "model";
  case ArchiveKind::Corpus:
    return "corpus";
  case ArchiveKind::Measurement:
    return "measurement";
  case ArchiveKind::Synthesis:
    return "synthesis";
  case ArchiveKind::Manifest:
    return "manifest";
  case ArchiveKind::Failure:
    return "failure";
  case ArchiveKind::Features:
    return "features";
  case ArchiveKind::Predictor:
    return "predictor";
  case ArchiveKind::Report:
    return "report";
  }
  return "unknown";
}

// Header (20) + checksum trailer (8) is the minimum well-formed size.
static constexpr size_t HeaderSize = 20, TrailerSize = 8;

/// The one container check: size, magic, version, kind (when
/// \p ExpectedKind is given), payload size and checksum, in that order,
/// so a damaged file reports the same first error to every reader.
static Result<ArchiveInfo>
checkContainer(const std::vector<uint8_t> &Bytes,
               std::optional<ArchiveKind> ExpectedKind) {
  ArchiveInfo Info;
  Info.FileSize = Bytes.size();
  if (Bytes.size() < HeaderSize + TrailerSize)
    return Result<ArchiveInfo>::error(
        "archive truncated: " + std::to_string(Bytes.size()) +
        " bytes is smaller than the fixed header");
  if (peekU32(Bytes.data()) != ArchiveMagic)
    return Result<ArchiveInfo>::error("bad magic: not a CLGS archive");
  Info.Version = peekU32(Bytes.data() + 4);
  Info.Kind = peekU32(Bytes.data() + 8);
  Info.PayloadSize = peekU64(Bytes.data() + 12);
  if (Info.Version != FormatVersion)
    return Result<ArchiveInfo>::error(
        "unsupported format version " + std::to_string(Info.Version) +
        " (expected " + std::to_string(FormatVersion) + ")");
  if (ExpectedKind && Info.Kind != static_cast<uint32_t>(*ExpectedKind))
    return Result<ArchiveInfo>::error(
        "archive kind mismatch: found " + std::to_string(Info.Kind) +
        ", expected " +
        std::to_string(static_cast<uint32_t>(*ExpectedKind)));
  if (Info.PayloadSize != Bytes.size() - HeaderSize - TrailerSize)
    return Result<ArchiveInfo>::error(
        "archive truncated: header promises " +
        std::to_string(Info.PayloadSize) + " payload bytes, file carries " +
        std::to_string(Bytes.size() - HeaderSize - TrailerSize));
  Info.Checksum = peekU64(Bytes.data() + HeaderSize + Info.PayloadSize);
  uint64_t Actual = fnv1a64(Bytes.data(), HeaderSize + Info.PayloadSize);
  if (Info.Checksum != Actual)
    return Result<ArchiveInfo>::error(
        "checksum mismatch: archive is corrupted");
  return Info;
}

Result<ArchiveInfo> store::inspectArchive(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  if (!readFileBytes(Path, Bytes))
    return Result<ArchiveInfo>::error("cannot read archive: " + Path);
  return checkContainer(Bytes, std::nullopt);
}

Result<ArchiveReader> ArchiveReader::open(const std::string &Path,
                                          ArchiveKind ExpectedKind) {
  std::vector<uint8_t> Bytes;
  if (!readFileBytes(Path, Bytes))
    return Result<ArchiveReader>::error("cannot read archive: " + Path);
  auto R = fromBytes(std::move(Bytes), ExpectedKind);
  if (!R.ok())
    return Result<ArchiveReader>::error(Path + ": " + R.errorMessage());
  return R;
}

Result<ArchiveReader> ArchiveReader::fromBytes(std::vector<uint8_t> Bytes,
                                               ArchiveKind ExpectedKind) {
  Result<ArchiveInfo> Info = checkContainer(Bytes, ExpectedKind);
  if (!Info.ok())
    return Result<ArchiveReader>::error(Info.errorMessage());
  ArchiveReader R;
  R.Data.assign(Bytes.begin() + HeaderSize,
                Bytes.begin() + HeaderSize + Info.get().PayloadSize);
  return R;
}

bool ArchiveReader::checkAvailable(size_t Bytes, const char *What) {
  if (!ok())
    return false;
  if (Data.size() - Pos < Bytes) {
    fail(std::string("archive underrun reading ") + What);
    return false;
  }
  return true;
}

void ArchiveReader::fail(std::string Message) {
  if (Error.empty())
    Error = std::move(Message);
  Pos = Data.size();
}

uint8_t ArchiveReader::readU8() {
  if (!checkAvailable(1, "u8"))
    return 0;
  return Data[Pos++];
}

uint32_t ArchiveReader::readU32() {
  if (!checkAvailable(4, "u32"))
    return 0;
  uint32_t V = peekU32(Data.data() + Pos);
  Pos += 4;
  return V;
}

uint64_t ArchiveReader::readU64() {
  if (!checkAvailable(8, "u64"))
    return 0;
  uint64_t V = peekU64(Data.data() + Pos);
  Pos += 8;
  return V;
}

float ArchiveReader::readF32() {
  uint32_t Bits = readU32();
  float V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

double ArchiveReader::readF64() {
  uint64_t Bits = readU64();
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

std::string ArchiveReader::readString() {
  uint64_t Size = readU64();
  if (!checkAvailable(Size, "string"))
    return std::string();
  std::string S(reinterpret_cast<const char *>(Data.data() + Pos), Size);
  Pos += Size;
  return S;
}

std::vector<float> ArchiveReader::readF32Vector() {
  uint64_t Count = readU64();
  // Divide instead of multiply: a corrupt count must not overflow the
  // bounds check into a huge allocation.
  if (!ok() || Count > (Data.size() - Pos) / 4) {
    fail("archive underrun reading float vector");
    return {};
  }
  std::vector<float> V;
  V.reserve(Count);
  for (uint64_t I = 0; I < Count; ++I)
    V.push_back(readF32());
  return V;
}

std::vector<double> ArchiveReader::readF64Vector() {
  uint64_t Count = readU64();
  if (!ok() || Count > (Data.size() - Pos) / 8) {
    fail("archive underrun reading double vector");
    return {};
  }
  std::vector<double> V;
  V.reserve(Count);
  for (uint64_t I = 0; I < Count; ++I)
    V.push_back(readF64());
  return V;
}

Status ArchiveReader::finish() const {
  if (!ok())
    return Status::error(Error);
  if (Pos != Data.size())
    return Status::error("archive has " + std::to_string(Data.size() - Pos) +
                         " unconsumed payload bytes (schema mismatch)");
  return Status();
}
