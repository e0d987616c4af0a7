//===- model/LanguageModel.cpp - Generative LM interface ----------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/LanguageModel.h"

#include "model/TemperedDraw.h"

#include <cmath>

using namespace clgen;
using namespace clgen::model;

LanguageModel::~LanguageModel() = default;

void LanguageModel::nextDistributionInto(std::vector<double> &Dist) {
  Dist = nextDistribution();
}

int LanguageModel::drawNext(double Temperature, Rng &R) {
  thread_local std::vector<double> Dist;
  nextDistributionInto(Dist);
  return drawToken(Dist, Temperature, R);
}

void LanguageModel::observeText(const std::string &Text) {
  const Vocabulary &V = vocabulary();
  for (char C : Text)
    observe(V.idOf(C));
}

double LanguageModel::bitsPerChar(const std::string &Text) {
  if (Text.empty())
    return 0.0;
  const Vocabulary &V = vocabulary();
  reset();
  double TotalBits = 0.0;
  for (char C : Text) {
    std::vector<double> Dist = nextDistribution();
    int Id = V.idOf(C);
    double P = Id >= 0 && static_cast<size_t>(Id) < Dist.size()
                   ? Dist[Id]
                   : 1e-12;
    TotalBits += -std::log2(P > 1e-12 ? P : 1e-12);
    observe(Id);
  }
  return TotalBits / static_cast<double>(Text.size());
}
