//===- tests/support/TraceTest.cpp - span tracing tests -----------------------===//
//
// Coverage for support/Trace.h: session lifecycle, span/instant round
// trips into Chrome trace-event JSON (checked with a minimal JSON
// syntax validator), bounded-buffer overflow accounting, session
// generation isolation, multi-threaded recording, deterministic
// rendering, and the CLGS_TRACE_* site macros.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace clgen;
using support::Trace;
using support::TraceOptions;

namespace {

/// Minimal recursive-descent JSON syntax checker: objects, arrays,
/// strings (with backslash escapes), numbers, literals. Enough to
/// catch unbalanced structure or broken quoting in the exporter — not
/// a general-purpose parser.
struct JsonParser {
  const char *P;
  const char *End;

  void ws() {
    while (P < End && std::isspace(static_cast<unsigned char>(*P)))
      ++P;
  }
  bool lit(const char *L) {
    size_t N = std::strlen(L);
    if (static_cast<size_t>(End - P) < N || std::strncmp(P, L, N) != 0)
      return false;
    P += N;
    return true;
  }
  bool string() {
    ++P; // Opening quote.
    while (P < End && *P != '"') {
      if (*P == '\\')
        ++P;
      ++P;
    }
    if (P >= End)
      return false;
    ++P; // Closing quote.
    return true;
  }
  bool number() {
    const char *S = P;
    if (P < End && *P == '-')
      ++P;
    while (P < End && (std::isdigit(static_cast<unsigned char>(*P)) ||
                       *P == '.' || *P == 'e' || *P == 'E' || *P == '+' ||
                       *P == '-'))
      ++P;
    return P > S;
  }
  bool object() {
    ++P;
    ws();
    if (P < End && *P == '}') {
      ++P;
      return true;
    }
    while (true) {
      ws();
      if (P >= End || *P != '"' || !string())
        return false;
      ws();
      if (P >= End || *P != ':')
        return false;
      ++P;
      if (!value())
        return false;
      ws();
      if (P < End && *P == ',') {
        ++P;
        continue;
      }
      if (P < End && *P == '}') {
        ++P;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++P;
    ws();
    if (P < End && *P == ']') {
      ++P;
      return true;
    }
    while (true) {
      if (!value())
        return false;
      ws();
      if (P < End && *P == ',') {
        ++P;
        continue;
      }
      if (P < End && *P == ']') {
        ++P;
        return true;
      }
      return false;
    }
  }
  bool value() {
    ws();
    if (P >= End)
      return false;
    switch (*P) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return lit("true");
    case 'f':
      return lit("false");
    case 'n':
      return lit("null");
    default:
      return number();
    }
  }
};

bool isValidJson(const std::string &S) {
  JsonParser J{S.data(), S.data() + S.size()};
  if (!J.value())
    return false;
  J.ws();
  return J.P == J.End;
}

size_t countOccurrences(const std::string &Text, const std::string &Sub) {
  size_t N = 0;
  for (size_t At = Text.find(Sub); At != std::string::npos;
       At = Text.find(Sub, At + Sub.size()))
    ++N;
  return N;
}

} // namespace

TEST(TraceTest, ValidatorSanity) {
  EXPECT_TRUE(isValidJson("{\"a\":[1,2.5,\"x\\\"y\"],\"b\":{}}"));
  EXPECT_FALSE(isValidJson("{\"a\":[1,2}"));
  EXPECT_FALSE(isValidJson("{\"a\":}"));
  EXPECT_FALSE(isValidJson("{} trailing"));
}

TEST(TraceTest, InactiveRecordsNothing) {
  Trace::span("ignored", 0, 1);
  Trace::instant("also-ignored");
  Trace::start();
  Trace::stop();
  EXPECT_EQ(Trace::eventCount(), 0u);
  std::string Json = Trace::renderJson();
  EXPECT_TRUE(isValidJson(Json)) << Json;
  EXPECT_NE(Json.find("\"traceEvents\":["), std::string::npos);
}

TEST(TraceTest, SpanAndInstantRoundTrip) {
  Trace::start();
  uint64_t Now = support::telemetryNowNs();
  Trace::span("measure", Now, 1500, 3);
  Trace::instant("pool.steal");
  Trace::stop();
  EXPECT_EQ(Trace::eventCount(), 2u);
  EXPECT_EQ(Trace::droppedCount(), 0u);
  std::string Json = Trace::renderJson();
  EXPECT_TRUE(isValidJson(Json)) << Json;
  EXPECT_NE(Json.find("\"name\":\"measure\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"dur\":1.500"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"args\":{\"index\":3}"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"name\":\"pool.steal\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"s\":\"t\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Rendering is deterministic for a fixed captured set.
  EXPECT_EQ(Json, Trace::renderJson());
}

TEST(TraceTest, OverflowDropsNewestAndCounts) {
  TraceOptions Opts;
  Opts.EventsPerThread = 4;
  Trace::start(Opts);
  for (int I = 0; I < 10; ++I)
    Trace::span("overflowing", support::telemetryNowNs(), 1,
                static_cast<uint64_t>(I));
  Trace::stop();
  EXPECT_EQ(Trace::eventCount(), 4u);
  EXPECT_EQ(Trace::droppedCount(), 6u);
  std::string Json = Trace::renderJson();
  EXPECT_TRUE(isValidJson(Json)) << Json;
  EXPECT_NE(Json.find("\"dropped\":\"6\""), std::string::npos) << Json;
  // Drop-newest: the four survivors are the first four recorded.
  for (int I = 0; I < 4; ++I)
    EXPECT_NE(Json.find("{\"index\":" + std::to_string(I) + "}"),
              std::string::npos)
        << Json;
  EXPECT_EQ(Json.find("{\"index\":4}"), std::string::npos) << Json;
}

TEST(TraceTest, NewSessionDiscardsPriorEvents) {
  Trace::start();
  Trace::instant("old");
  Trace::instant("old");
  Trace::stop();
  EXPECT_EQ(Trace::eventCount(), 2u);
  Trace::start();
  Trace::instant("new");
  Trace::stop();
  EXPECT_EQ(Trace::eventCount(), 1u);
  std::string Json = Trace::renderJson();
  EXPECT_EQ(Json.find("\"name\":\"old\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"name\":\"new\""), std::string::npos) << Json;
}

TEST(TraceTest, MultiThreadedRecording) {
  constexpr size_t Threads = 4, PerThread = 500;
  Trace::start();
  std::vector<std::thread> Ts;
  for (size_t T = 0; T < Threads; ++T)
    Ts.emplace_back([] {
      for (size_t I = 0; I < PerThread; ++I) {
        uint64_t Now = support::telemetryNowNs();
        Trace::span("worker-span", Now, 10, I);
      }
    });
  for (auto &T : Ts)
    T.join();
  Trace::stop();
  EXPECT_EQ(Trace::eventCount(), Threads * PerThread);
  EXPECT_EQ(Trace::droppedCount(), 0u);
  std::string Json = Trace::renderJson();
  EXPECT_TRUE(isValidJson(Json)) << "render of " << Json.size() << " bytes";
  EXPECT_EQ(countOccurrences(Json, "\"name\":\"worker-span\""),
            Threads * PerThread);
}

TEST(TraceTest, EscapesNameCharacters) {
  Trace::start();
  Trace::instant("quote\"and\\slash");
  Trace::stop();
  std::string Json = Trace::renderJson();
  EXPECT_TRUE(isValidJson(Json)) << Json;
  EXPECT_NE(Json.find("quote\\\"and\\\\slash"), std::string::npos) << Json;
}

TEST(TraceTest, MacrosMatchCompiledInState) {
  Trace::start();
  {
    CLGS_TRACE_SPAN("macro-span");
    CLGS_TRACE_INSTANT_IDX("macro-instant", 9);
  }
  Trace::stop();
  EXPECT_EQ(Trace::eventCount(), 2u);
  std::string Json = Trace::renderJson();
  EXPECT_NE(Json.find("\"name\":\"macro-span\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"macro-instant\""), std::string::npos);
}

TEST(TraceTest, TwoSpansShareAScope) {
  Trace::start();
  {
    CLGS_TRACE_SPAN("outer-span");
    CLGS_TRACE_SPAN_IDX("inner-span", 4);
  }
  Trace::stop();
  EXPECT_EQ(Trace::eventCount(), 2u);
  std::string Json = Trace::renderJson();
  EXPECT_NE(Json.find("\"name\":\"outer-span\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"inner-span\""), std::string::npos);
}
