//===- serve/Protocol.h - clgen-serve wire protocol --------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed request/response protocol of the `clgen-serve` pipeline
/// daemon. Transport is a Unix-domain stream socket; on the wire every
/// message is one length-prefixed, checksummed frame:
///
///   [u32 magic 'CSRV'][u32 payload length][payload bytes]
///   [u64 fnv1a64(payload)]
///
/// All integers travel little-endian byte-by-byte (the store's
/// endian-stable convention). The trailer checksum covers the whole
/// payload, so ANY single-byte corruption of a frame — magic, length,
/// payload or trailer — is rejected deterministically; truncation at
/// every possible length is a clean parse error, never a crash or an
/// over-read (the frame fuzz tests in tests/serve/ServeProtocolTest.cpp
/// pin both properties byte-by-byte). Frames are capped at
/// MaxFrameBytes: a corrupt or hostile length field fails fast instead
/// of provoking a giant allocation.
///
/// The payload starts with a protocol version and a message type tag;
/// the remaining fields are per-type. Requests parameterize the
/// SEMANTIC synthesis configuration only (target, seed, temperature) —
/// scheduling (measure workers, queue capacity) is server policy, so
/// two requests that should coalesce cannot be split by client-side
/// scheduling noise. The serve layer persists everything through the
/// existing store archive kinds (the kernel-set Synthesis artifact,
/// Measurement cache entries, the Failure ledger); the wire frame is
/// transient and introduces NO new archive kind.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_SERVE_PROTOCOL_H
#define CLGEN_SERVE_PROTOCOL_H

#include "support/Result.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace clgen {
namespace serve {

/// Frame magic ('C' 'S' 'R' 'V' on the wire) and protocol version.
/// Bump ProtocolVersion when any payload schema changes shape; servers
/// reject other versions loudly instead of misparsing.
constexpr uint32_t FrameMagic = 0x56525343u; // "CSRV" little-endian.
constexpr uint32_t ProtocolVersion = 1;

/// Hard cap on one frame's payload size. Synthesis responses carry
/// kernel sources and measurement rows; even large batches stay far
/// below this — anything bigger is corruption or abuse.
constexpr uint32_t MaxFrameBytes = 64u * 1024 * 1024;

/// Largest TargetKernels a request may ask for. A response carries one
/// source and one measurement row per kernel: a sample of at most
/// 2048 characters (SamplingOptions::MaxLength) before normalisation,
/// and 33 bytes of fixed row fields plus a one-line diagnostic. At 4096
/// kernels each one has MaxFrameBytes / 4096 = 16 KiB of the frame,
/// eight times the sample cap, so a response at the cap still fits one
/// frame. The cap also bounds a flight's attempt budget (100 attempts
/// per kernel), so graceful drain and coalesced waiters always finish.
constexpr uint64_t MaxTargetKernels = 4096;
static_assert(MaxTargetKernels * 16 * 1024 <= MaxFrameBytes,
              "a response at the target cap must fit one frame");

/// Message type tags. Requests are < 128, responses >= 128.
enum class MessageType : uint8_t {
  PingRequest = 1,
  SynthesizeRequest = 2,
  StatsRequest = 3,
  ShutdownRequest = 4,
  PingResponse = 129,
  SynthesizeResponse = 130,
  StatsResponse = 131,
  ShutdownResponse = 132,
  ErrorResponse = 255,
};

/// A synthesis/measurement request: the semantic configuration of one
/// streaming synthesizeAndMeasure run. Identical field values =>
/// identical results (the engine's determinism contract), which is what
/// makes in-flight coalescing and the kernel-set warm start sound.
struct SynthesizeRequest {
  uint64_t TargetKernels = 0; // Must be positive (validated).
  uint64_t Seed = 0xC17E9;
  double Temperature = 0.5;
};

/// One measurement row of a synthesis response.
struct MeasurementRow {
  bool Ok = false;
  double CpuTime = 0.0; // Seconds (estimated device runtimes).
  double GpuTime = 0.0;
  std::string Error; // Diagnostic when !Ok.
};

/// The response to a SynthesizeRequest, including the per-request work
/// provenance the check_serve fixture asserts on: a warm request (the
/// kernel-set artifact was served from the store) reports
/// TrainedModels == 0, SampleAttempts == 0 and MeasuredKernels == 0
/// while returning byte-identical kernel sources to the cold run.
struct SynthesizeResponse {
  /// True when the kernel set was loaded from the store instead of
  /// sampled (the streaming warm-start path: the channel producer was
  /// an archive reader and the request performed zero sampling).
  bool WarmKernels = false;
  /// Language models trained while serving THIS request (1 for the
  /// request that cold-trained the daemon's model, else 0).
  uint64_t TrainedModels = 0;
  /// Raw model samples drawn while serving this request (0 when warm).
  uint64_t SampleAttempts = 0;
  /// Driver measurements actually executed (cache misses measured);
  /// 0 when every measurement came from the result cache.
  uint64_t MeasuredKernels = 0;
  /// Measurements served from the result cache / failure ledger.
  uint64_t CacheHits = 0;
  uint64_t LedgerHits = 0;
  /// fnv1a64 over the kernel sources in order — the cheap byte-identity
  /// witness clients compare across cold/warm runs.
  uint64_t KernelSetDigest = 0;
  std::vector<std::string> Sources;
  std::vector<MeasurementRow> Measurements; // Index-aligned with Sources.
};

/// Server identity returned by ping.
struct PingResponse {
  uint64_t Pid = 0;
  uint32_t Version = ProtocolVersion;
};

/// One parsed message (the type tag plus whichever body applies).
struct Message {
  MessageType Type = MessageType::ErrorResponse;
  SynthesizeRequest Synth;          // SynthesizeRequest.
  SynthesizeResponse SynthResponse; // SynthesizeResponse.
  PingResponse Ping;                // PingResponse.
  std::string Text;                 // StatsResponse / ErrorResponse.
};

/// Validates the semantic request fields. Target-0 is an explicit usage
/// error (a zero-target run would "succeed" with an empty kernel set —
/// the silent no-op the serve layer refuses to serve), and so is a
/// target above MaxTargetKernels or a temperature that is not a
/// positive finite number.
Status validateRequest(const SynthesizeRequest &Req);

//===----------------------------------------------------------------------===//
// Encoding
//===----------------------------------------------------------------------===//

std::vector<uint8_t> encodePingRequest();
std::vector<uint8_t> encodeStatsRequest();
std::vector<uint8_t> encodeShutdownRequest();
std::vector<uint8_t> encodeSynthesizeRequest(const SynthesizeRequest &Req);
std::vector<uint8_t> encodePingResponse(const PingResponse &Resp);
std::vector<uint8_t> encodeStatsResponse(const std::string &Text);
std::vector<uint8_t> encodeShutdownResponse();
std::vector<uint8_t>
encodeSynthesizeResponse(const SynthesizeResponse &Resp);
std::vector<uint8_t> encodeErrorResponse(const std::string &Message);

/// Parses one complete frame image (header + payload + trailer).
/// Rejects bad magic, impossible lengths, truncation, trailing bytes
/// and checksum mismatches — every read is bounds-checked.
Result<Message> parseFrame(const std::vector<uint8_t> &Frame);

/// Incremental frame assembly for socket readers: call with the bytes
/// received so far; returns the total frame size once the 8-byte header
/// is available (so the reader knows how much to await), 0 while even
/// the header is incomplete, or an error for bad magic / oversized
/// length — the caller drops the connection instead of waiting forever
/// on garbage.
Result<size_t> frameSizeFromHeader(const uint8_t *Data, size_t Size);

//===----------------------------------------------------------------------===//
// Blocking socket I/O
//===----------------------------------------------------------------------===//

/// Writes one complete frame to \p Fd, retrying short writes and EINTR.
Status writeFrame(int Fd, const std::vector<uint8_t> &Frame);

/// Reads one complete frame image from \p Fd (header first, then
/// exactly the advertised remainder). Clean EOF before the first byte
/// reports "connection closed"; EOF mid-frame, bad magic and oversized
/// lengths are distinct errors. The returned bytes still carry the
/// checksum — feed them to parseFrame.
Result<std::vector<uint8_t>> readFrame(int Fd);

} // namespace serve
} // namespace clgen

#endif // CLGEN_SERVE_PROTOCOL_H
