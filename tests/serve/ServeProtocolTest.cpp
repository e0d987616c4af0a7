//===- tests/serve/ServeProtocolTest.cpp - wire protocol tests ------------===//
//
// Part of the CLgen reproduction. MIT license.
//
// The clgen-serve frame format (serve/Protocol.h): round-trips for
// every message type, then the adversarial surface — the checksum
// trailer must reject EVERY single-byte corruption of a valid frame,
// and truncation at every possible length must be a clean parse error
// (never a crash, never an over-read, never a bogus success).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "gtest/gtest.h"

#include <limits>
#include <string>
#include <vector>

using namespace clgen;
using namespace clgen::serve;

namespace {

SynthesizeResponse sampleResponse() {
  SynthesizeResponse R;
  R.WarmKernels = true;
  R.TrainedModels = 1;
  R.SampleAttempts = 292;
  R.MeasuredKernels = 4;
  R.CacheHits = 7;
  R.LedgerHits = 2;
  R.KernelSetDigest = 0x9f8a850baaa521e5ull;
  R.Sources = {"__kernel void a() {}", "__kernel void b(int n) {}"};
  MeasurementRow Ok;
  Ok.Ok = true;
  Ok.CpuTime = 0.25;
  Ok.GpuTime = 0.125;
  MeasurementRow Bad;
  Bad.Ok = false;
  Bad.Error = "launch failed: out-of-bounds global access";
  R.Measurements = {Ok, Bad};
  return R;
}

} // namespace

TEST(ServeProtocolTest, SynthesizeRequestRoundTrips) {
  SynthesizeRequest Req;
  Req.TargetKernels = 40;
  Req.Seed = 0xDEADBEEFCAFEull;
  Req.Temperature = 0.75;
  auto Parsed = parseFrame(encodeSynthesizeRequest(Req));
  ASSERT_TRUE(Parsed.ok()) << Parsed.errorMessage();
  EXPECT_EQ(Parsed.get().Type, MessageType::SynthesizeRequest);
  EXPECT_EQ(Parsed.get().Synth.TargetKernels, Req.TargetKernels);
  EXPECT_EQ(Parsed.get().Synth.Seed, Req.Seed);
  EXPECT_EQ(Parsed.get().Synth.Temperature, Req.Temperature);
}

TEST(ServeProtocolTest, SynthesizeResponseRoundTrips) {
  SynthesizeResponse R = sampleResponse();
  auto Parsed = parseFrame(encodeSynthesizeResponse(R));
  ASSERT_TRUE(Parsed.ok()) << Parsed.errorMessage();
  const SynthesizeResponse &Out = Parsed.get().SynthResponse;
  EXPECT_EQ(Parsed.get().Type, MessageType::SynthesizeResponse);
  EXPECT_EQ(Out.WarmKernels, R.WarmKernels);
  EXPECT_EQ(Out.TrainedModels, R.TrainedModels);
  EXPECT_EQ(Out.SampleAttempts, R.SampleAttempts);
  EXPECT_EQ(Out.MeasuredKernels, R.MeasuredKernels);
  EXPECT_EQ(Out.CacheHits, R.CacheHits);
  EXPECT_EQ(Out.LedgerHits, R.LedgerHits);
  EXPECT_EQ(Out.KernelSetDigest, R.KernelSetDigest);
  EXPECT_EQ(Out.Sources, R.Sources);
  ASSERT_EQ(Out.Measurements.size(), R.Measurements.size());
  for (size_t I = 0; I < R.Measurements.size(); ++I) {
    EXPECT_EQ(Out.Measurements[I].Ok, R.Measurements[I].Ok);
    EXPECT_EQ(Out.Measurements[I].CpuTime, R.Measurements[I].CpuTime);
    EXPECT_EQ(Out.Measurements[I].GpuTime, R.Measurements[I].GpuTime);
    EXPECT_EQ(Out.Measurements[I].Error, R.Measurements[I].Error);
  }
}

TEST(ServeProtocolTest, SimpleMessagesRoundTrip) {
  auto Ping = parseFrame(encodePingRequest());
  ASSERT_TRUE(Ping.ok());
  EXPECT_EQ(Ping.get().Type, MessageType::PingRequest);

  PingResponse Id;
  Id.Pid = 12345;
  auto Pong = parseFrame(encodePingResponse(Id));
  ASSERT_TRUE(Pong.ok());
  EXPECT_EQ(Pong.get().Type, MessageType::PingResponse);
  EXPECT_EQ(Pong.get().Ping.Pid, 12345u);
  EXPECT_EQ(Pong.get().Ping.Version, ProtocolVersion);

  auto Stats = parseFrame(encodeStatsResponse("requests_served 3\n"));
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats.get().Type, MessageType::StatsResponse);
  EXPECT_EQ(Stats.get().Text, "requests_served 3\n");

  auto Err = parseFrame(encodeErrorResponse("bad request"));
  ASSERT_TRUE(Err.ok());
  EXPECT_EQ(Err.get().Type, MessageType::ErrorResponse);
  EXPECT_EQ(Err.get().Text, "bad request");

  EXPECT_TRUE(parseFrame(encodeStatsRequest()).ok());
  EXPECT_TRUE(parseFrame(encodeShutdownRequest()).ok());
  EXPECT_TRUE(parseFrame(encodeShutdownResponse()).ok());
}

TEST(ServeProtocolTest, EveryByteCorruptionIsRejected) {
  // The trailer checksum covers the payload and the header fields are
  // individually validated, so flipping ANY single byte of a valid
  // frame must fail the parse. Flip every bit of every byte.
  std::vector<uint8_t> Frame = encodeSynthesizeResponse(sampleResponse());
  for (size_t I = 0; I < Frame.size(); ++I) {
    for (uint8_t Bit = 0; Bit < 8; ++Bit) {
      std::vector<uint8_t> Mutant = Frame;
      Mutant[I] ^= static_cast<uint8_t>(1u << Bit);
      auto Parsed = parseFrame(Mutant);
      EXPECT_FALSE(Parsed.ok())
          << "byte " << I << " bit " << unsigned(Bit)
          << " corruption parsed successfully";
    }
  }
}

TEST(ServeProtocolTest, TruncationAtEveryLengthIsACleanError) {
  std::vector<uint8_t> Frame = encodeSynthesizeRequest(SynthesizeRequest{
      /*TargetKernels=*/8, /*Seed=*/1, /*Temperature=*/0.5});
  for (size_t Len = 0; Len < Frame.size(); ++Len) {
    std::vector<uint8_t> Prefix(Frame.begin(), Frame.begin() + Len);
    auto Parsed = parseFrame(Prefix);
    EXPECT_FALSE(Parsed.ok()) << "truncation to " << Len << " bytes parsed";
  }
  // And appending trailing garbage is rejected too — a frame is exact.
  std::vector<uint8_t> Oversize = Frame;
  Oversize.push_back(0);
  EXPECT_FALSE(parseFrame(Oversize).ok());
}

TEST(ServeProtocolTest, FrameSizeFromHeaderDrivesIncrementalReads) {
  std::vector<uint8_t> Frame = encodePingRequest();
  // Incomplete header: "keep reading" (size 0), not an error.
  for (size_t Len = 0; Len < 8; ++Len) {
    auto R = frameSizeFromHeader(Frame.data(), Len);
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.get(), 0u);
  }
  auto Full = frameSizeFromHeader(Frame.data(), Frame.size());
  ASSERT_TRUE(Full.ok());
  EXPECT_EQ(Full.get(), Frame.size());

  // Bad magic fails fast — the reader drops the connection instead of
  // waiting forever on garbage.
  std::vector<uint8_t> BadMagic = Frame;
  BadMagic[0] ^= 0xFF;
  EXPECT_FALSE(frameSizeFromHeader(BadMagic.data(), BadMagic.size()).ok());

  // A hostile length field fails fast instead of provoking a giant
  // allocation: encode MaxFrameBytes + 1 into the length word.
  std::vector<uint8_t> Hostile = Frame;
  uint32_t Huge = MaxFrameBytes + 1;
  for (int B = 0; B < 4; ++B)
    Hostile[4 + B] = static_cast<uint8_t>(Huge >> (8 * B));
  EXPECT_FALSE(frameSizeFromHeader(Hostile.data(), Hostile.size()).ok());
}

TEST(ServeProtocolTest, ValidateRequestRejectsZeroTarget) {
  SynthesizeRequest Req;
  Req.TargetKernels = 0;
  Status S = validateRequest(Req);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.errorMessage().find("usage error"), std::string::npos);

  Req.TargetKernels = 1;
  EXPECT_TRUE(validateRequest(Req).ok());

  // Non-positive or non-finite temperature is equally unservable.
  for (double T : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    Req.Temperature = T;
    EXPECT_FALSE(validateRequest(Req).ok()) << "temperature " << T;
  }
  Req.Temperature = 0.5;

  // So is a target above the cap: its flight would never end.
  Req.TargetKernels = MaxTargetKernels;
  EXPECT_TRUE(validateRequest(Req).ok());
  for (uint64_t Target : {MaxTargetKernels + 1, uint64_t(1) << 40}) {
    Req.TargetKernels = Target;
    Status Big = validateRequest(Req);
    EXPECT_FALSE(Big.ok()) << "target " << Target;
    EXPECT_NE(Big.errorMessage().find("usage error"), std::string::npos);
  }
}
