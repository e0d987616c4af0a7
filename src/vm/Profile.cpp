//===- vm/Profile.cpp - VM opcode execution profiling ---------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Profile.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace clgen;
using namespace clgen::vm;

uint64_t OpcodeProfile::instructionTotal() const {
  uint64_t Sum = 0;
  for (size_t I = 0; I < NumOpcodes; ++I)
    Sum += Count[I];
  return Sum;
}

uint64_t OpcodeProfile::branchTotal() const {
  return Count[static_cast<size_t>(Opcode::Jz)] +
         Count[static_cast<size_t>(Opcode::Jnz)];
}

void OpcodeProfile::merge(const OpcodeProfile &Other) {
  for (size_t I = 0; I < NumOpcodes; ++I)
    Count[I] += Other.Count[I];
  for (size_t I = 0; I < NumOpcodes; ++I)
    for (size_t J = 0; J < NumOpcodes; ++J)
      Pair[I][J] += Other.Pair[I][J];
  Launches += Other.Launches;
}

std::vector<OpcodePairCount> vm::topPairs(const OpcodeProfile &P, size_t N) {
  std::vector<OpcodePairCount> Pairs;
  for (size_t I = 0; I < NumOpcodes; ++I)
    for (size_t J = 0; J < NumOpcodes; ++J)
      if (P.Pair[I][J] != 0)
        Pairs.push_back(OpcodePairCount{static_cast<Opcode>(I),
                                        static_cast<Opcode>(J), P.Pair[I][J]});
  std::sort(Pairs.begin(), Pairs.end(),
            [](const OpcodePairCount &A, const OpcodePairCount &B) {
              if (A.Count != B.Count)
                return A.Count > B.Count;
              if (A.First != B.First)
                return A.First < B.First;
              return A.Second < B.Second;
            });
  if (Pairs.size() > N)
    Pairs.resize(N);
  return Pairs;
}

std::string vm::formatOpcodeReport(const OpcodeProfile &P, size_t TopN) {
  uint64_t Total = P.instructionTotal();
  std::string Out;
  Out += formatString("vm profile: %llu instructions, %llu branches, "
                      "%llu launches\n",
                      static_cast<unsigned long long>(Total),
                      static_cast<unsigned long long>(P.branchTotal()),
                      static_cast<unsigned long long>(P.Launches));
  if (Total == 0)
    return Out;

  // Percentages in integer basis points: deterministic bytes, no float
  // formatting in the report path.
  auto Bp = [Total](uint64_t N) -> unsigned {
    return static_cast<unsigned>((N * 10000) / Total);
  };

  struct Ranked {
    Opcode Op;
    uint64_t N;
  };
  std::vector<Ranked> Ops;
  for (size_t I = 0; I < NumOpcodes; ++I)
    if (P.Count[I] != 0)
      Ops.push_back(Ranked{static_cast<Opcode>(I), P.Count[I]});
  std::sort(Ops.begin(), Ops.end(), [](const Ranked &A, const Ranked &B) {
    if (A.N != B.N)
      return A.N > B.N;
    return A.Op < B.Op;
  });
  if (Ops.size() > TopN)
    Ops.resize(TopN);

  Out += "top opcodes:\n";
  for (const Ranked &R : Ops)
    Out += formatString("  %-6s %12llu  %3u.%02u%%\n", opcodeName(R.Op),
                        static_cast<unsigned long long>(R.N), Bp(R.N) / 100,
                        Bp(R.N) % 100);

  Out += "top opcode pairs:\n";
  for (const OpcodePairCount &PC : topPairs(P, TopN))
    Out += formatString("  %-6s-> %-6s %12llu  %3u.%02u%%\n",
                        opcodeName(PC.First), opcodeName(PC.Second),
                        static_cast<unsigned long long>(PC.Count),
                        Bp(PC.Count) / 100, Bp(PC.Count) % 100);
  return Out;
}
