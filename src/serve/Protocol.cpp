//===- serve/Protocol.cpp - clgen-serve wire protocol ---------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "store/Archive.h"

#include <cerrno>
#include <cmath>
#include <cstring>

#include <unistd.h>

using namespace clgen;
using namespace clgen::serve;

namespace {

constexpr size_t HeaderSize = 8;  // magic + payload length.
constexpr size_t TrailerSize = 8; // fnv1a64(payload).

/// Little-endian byte-by-byte payload writer (the store's endian-stable
/// convention, minus the archive container).
class PayloadWriter {
public:
  void u8(uint8_t V) { Bytes.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void f64(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V));
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void str(const std::string &S) {
    u64(S.size());
    Bytes.insert(Bytes.end(), S.begin(), S.end());
  }

  std::vector<uint8_t> Bytes;
};

/// Bounds-checked little-endian payload reader. Every accessor fails
/// softly (sticky Ok flag) instead of reading past the end, so a
/// truncated payload at ANY offset degrades to a parse error.
class PayloadReader {
public:
  PayloadReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  uint8_t u8() {
    if (!need(1))
      return 0;
    return Data[Pos++];
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos++]) << (8 * I);
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  std::string str() {
    uint64_t N = u64();
    if (N > Size - Pos || !need(static_cast<size_t>(N))) {
      Ok = false;
      return {};
    }
    std::string S(reinterpret_cast<const char *>(Data + Pos),
                  static_cast<size_t>(N));
    Pos += static_cast<size_t>(N);
    return S;
  }

  bool ok() const { return Ok; }
  bool atEnd() const { return Ok && Pos == Size; }

private:
  bool need(size_t N) {
    if (!Ok || Size - Pos < N) {
      Ok = false;
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Ok = true;
};

/// Wraps a finished payload in the frame container: header, payload,
/// checksum trailer.
std::vector<uint8_t> seal(PayloadWriter &&Payload) {
  std::vector<uint8_t> Frame;
  Frame.reserve(HeaderSize + Payload.Bytes.size() + TrailerSize);
  for (int I = 0; I < 4; ++I)
    Frame.push_back(static_cast<uint8_t>(FrameMagic >> (8 * I)));
  uint32_t Len = static_cast<uint32_t>(Payload.Bytes.size());
  for (int I = 0; I < 4; ++I)
    Frame.push_back(static_cast<uint8_t>(Len >> (8 * I)));
  Frame.insert(Frame.end(), Payload.Bytes.begin(), Payload.Bytes.end());
  uint64_t Checksum = store::fnv1a64(Payload.Bytes.data(), Payload.Bytes.size());
  for (int I = 0; I < 8; ++I)
    Frame.push_back(static_cast<uint8_t>(Checksum >> (8 * I)));
  return Frame;
}

PayloadWriter begin(MessageType Type) {
  PayloadWriter W;
  W.u32(ProtocolVersion);
  W.u8(static_cast<uint8_t>(Type));
  return W;
}

} // namespace

Status serve::validateRequest(const SynthesizeRequest &Req) {
  if (Req.TargetKernels == 0)
    return Status::error("target kernel count must be positive: a "
                         "zero-target request would succeed with an empty "
                         "kernel set (usage error)");
  if (Req.TargetKernels > MaxTargetKernels)
    return Status::error("target kernel count " +
                         std::to_string(Req.TargetKernels) +
                         " exceeds the cap of " +
                         std::to_string(MaxTargetKernels) + " (usage error)");
  if (!(Req.Temperature > 0.0) || !std::isfinite(Req.Temperature))
    return Status::error("sampling temperature must be positive and finite "
                         "(usage error)");
  return Status();
}

std::vector<uint8_t> serve::encodePingRequest() {
  return seal(begin(MessageType::PingRequest));
}

std::vector<uint8_t> serve::encodeStatsRequest() {
  return seal(begin(MessageType::StatsRequest));
}

std::vector<uint8_t> serve::encodeShutdownRequest() {
  return seal(begin(MessageType::ShutdownRequest));
}

std::vector<uint8_t> serve::encodeShutdownResponse() {
  return seal(begin(MessageType::ShutdownResponse));
}

std::vector<uint8_t>
serve::encodeSynthesizeRequest(const SynthesizeRequest &Req) {
  PayloadWriter W = begin(MessageType::SynthesizeRequest);
  W.u64(Req.TargetKernels);
  W.u64(Req.Seed);
  W.f64(Req.Temperature);
  return seal(std::move(W));
}

std::vector<uint8_t> serve::encodePingResponse(const PingResponse &Resp) {
  PayloadWriter W = begin(MessageType::PingResponse);
  W.u64(Resp.Pid);
  W.u32(Resp.Version);
  return seal(std::move(W));
}

std::vector<uint8_t> serve::encodeStatsResponse(const std::string &Text) {
  PayloadWriter W = begin(MessageType::StatsResponse);
  W.str(Text);
  return seal(std::move(W));
}

std::vector<uint8_t> serve::encodeErrorResponse(const std::string &Message) {
  PayloadWriter W = begin(MessageType::ErrorResponse);
  W.str(Message);
  return seal(std::move(W));
}

std::vector<uint8_t>
serve::encodeSynthesizeResponse(const SynthesizeResponse &Resp) {
  PayloadWriter W = begin(MessageType::SynthesizeResponse);
  W.u8(Resp.WarmKernels ? 1 : 0);
  W.u64(Resp.TrainedModels);
  W.u64(Resp.SampleAttempts);
  W.u64(Resp.MeasuredKernels);
  W.u64(Resp.CacheHits);
  W.u64(Resp.LedgerHits);
  W.u64(Resp.KernelSetDigest);
  W.u64(Resp.Sources.size());
  for (const std::string &S : Resp.Sources)
    W.str(S);
  W.u64(Resp.Measurements.size());
  for (const MeasurementRow &M : Resp.Measurements) {
    W.u8(M.Ok ? 1 : 0);
    W.f64(M.CpuTime);
    W.f64(M.GpuTime);
    W.str(M.Error);
  }
  return seal(std::move(W));
}

Result<size_t> serve::frameSizeFromHeader(const uint8_t *Data, size_t Size) {
  if (Size < HeaderSize)
    return static_cast<size_t>(0);
  uint32_t Magic = 0, Len = 0;
  for (int I = 0; I < 4; ++I)
    Magic |= static_cast<uint32_t>(Data[I]) << (8 * I);
  for (int I = 0; I < 4; ++I)
    Len |= static_cast<uint32_t>(Data[4 + I]) << (8 * I);
  if (Magic != FrameMagic)
    return Result<size_t>::error("bad frame magic");
  if (Len > MaxFrameBytes)
    return Result<size_t>::error("frame payload exceeds the " +
                                 std::to_string(MaxFrameBytes) + "-byte cap");
  return HeaderSize + static_cast<size_t>(Len) + TrailerSize;
}

Result<Message> serve::parseFrame(const std::vector<uint8_t> &Frame) {
  Result<size_t> Want = frameSizeFromHeader(Frame.data(), Frame.size());
  if (!Want)
    return Result<Message>::error(Want.errorMessage());
  if (Want.get() == 0 || Frame.size() < Want.get())
    return Result<Message>::error("truncated frame: have " +
                                  std::to_string(Frame.size()) + " bytes");
  if (Frame.size() > Want.get())
    return Result<Message>::error("trailing bytes after frame");

  size_t PayloadSize = Want.get() - HeaderSize - TrailerSize;
  const uint8_t *Payload = Frame.data() + HeaderSize;
  uint64_t Stored = 0;
  for (int I = 0; I < 8; ++I)
    Stored |= static_cast<uint64_t>(Frame[HeaderSize + PayloadSize + I])
              << (8 * I);
  if (Stored != store::fnv1a64(Payload, PayloadSize))
    return Result<Message>::error("frame checksum mismatch");

  PayloadReader R(Payload, PayloadSize);
  uint32_t Version = R.u32();
  if (R.ok() && Version != ProtocolVersion)
    return Result<Message>::error("unsupported protocol version " +
                                  std::to_string(Version));
  Message M;
  M.Type = static_cast<MessageType>(R.u8());
  switch (M.Type) {
  case MessageType::PingRequest:
  case MessageType::StatsRequest:
  case MessageType::ShutdownRequest:
  case MessageType::ShutdownResponse:
    break;
  case MessageType::SynthesizeRequest:
    M.Synth.TargetKernels = R.u64();
    M.Synth.Seed = R.u64();
    M.Synth.Temperature = R.f64();
    break;
  case MessageType::PingResponse:
    M.Ping.Pid = R.u64();
    M.Ping.Version = R.u32();
    break;
  case MessageType::StatsResponse:
  case MessageType::ErrorResponse:
    M.Text = R.str();
    break;
  case MessageType::SynthesizeResponse: {
    SynthesizeResponse &S = M.SynthResponse;
    S.WarmKernels = R.u8() != 0;
    S.TrainedModels = R.u64();
    S.SampleAttempts = R.u64();
    S.MeasuredKernels = R.u64();
    S.CacheHits = R.u64();
    S.LedgerHits = R.u64();
    S.KernelSetDigest = R.u64();
    uint64_t NumSources = R.u64();
    if (NumSources > PayloadSize) // Cheap sanity bound before reserving.
      return Result<Message>::error("implausible source count");
    for (uint64_t I = 0; R.ok() && I < NumSources; ++I)
      S.Sources.push_back(R.str());
    uint64_t NumRows = R.u64();
    if (NumRows > PayloadSize)
      return Result<Message>::error("implausible measurement count");
    for (uint64_t I = 0; R.ok() && I < NumRows; ++I) {
      MeasurementRow Row;
      Row.Ok = R.u8() != 0;
      Row.CpuTime = R.f64();
      Row.GpuTime = R.f64();
      Row.Error = R.str();
      S.Measurements.push_back(std::move(Row));
    }
    break;
  }
  default:
    return Result<Message>::error("unknown message type " +
                                  std::to_string(static_cast<unsigned>(
                                      static_cast<uint8_t>(M.Type))));
  }
  if (!R.atEnd())
    return Result<Message>::error("malformed payload for message type " +
                                  std::to_string(static_cast<unsigned>(
                                      static_cast<uint8_t>(M.Type))));
  return M;
}

Status serve::writeFrame(int Fd, const std::vector<uint8_t> &Frame) {
  size_t Off = 0;
  while (Off < Frame.size()) {
    ssize_t N = ::write(Fd, Frame.data() + Off, Frame.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::error(std::string("frame write failed: ") +
                           std::strerror(errno));
    }
    Off += static_cast<size_t>(N);
  }
  return Status();
}

Result<std::vector<uint8_t>> serve::readFrame(int Fd) {
  std::vector<uint8_t> Buf;
  // Read until the 8-byte header tells us the total frame size, then
  // until that size is satisfied. frameSizeFromHeader rejects garbage
  // (bad magic, hostile length) before any large allocation.
  size_t Want = 8;
  while (Buf.size() < Want) {
    size_t Off = Buf.size();
    Buf.resize(Want);
    ssize_t N = ::read(Fd, Buf.data() + Off, Want - Off);
    if (N < 0) {
      if (errno == EINTR) {
        Buf.resize(Off);
        continue;
      }
      return Result<std::vector<uint8_t>>::error(
          std::string("frame read failed: ") + std::strerror(errno));
    }
    if (N == 0)
      return Result<std::vector<uint8_t>>::error(
          Off == 0 ? "connection closed"
                   : "connection closed mid-frame (truncated frame)");
    Buf.resize(Off + static_cast<size_t>(N));
    if (Want == 8 && Buf.size() >= 8) {
      Result<size_t> Total = frameSizeFromHeader(Buf.data(), Buf.size());
      if (!Total)
        return Result<std::vector<uint8_t>>::error(Total.errorMessage());
      Want = Total.get();
    }
  }
  return Buf;
}
