//===- githubsim/GithubSim.cpp - Synthetic GitHub content files ---------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "githubsim/GithubSim.h"

#include "suites/KernelPatterns.h"
#include "support/StringUtils.h"

#include <cctype>

using namespace clgen;
using namespace clgen::githubsim;

namespace {

bool isWordChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// Word-boundary-aware whole-word replacement.
std::string replaceWord(const std::string &Text, const std::string &From,
                        const std::string &To) {
  std::string Out;
  size_t I = 0;
  while (I < Text.size()) {
    if (Text.compare(I, From.size(), From) == 0 &&
        (I == 0 || !isWordChar(Text[I - 1])) &&
        (I + From.size() >= Text.size() || !isWordChar(Text[I + From.size()]))) {
      Out += To;
      I += From.size();
      continue;
    }
    Out += Text[I++];
  }
  return Out;
}

/// Pools of "human" identifier names. Lowercase only, and disjoint from
/// every shim-provided identifier so valid files stay valid under shim
/// injection.
const char *BufferNames[] = {"input",  "output",  "src",    "dst",
                             "buffer", "values",  "result", "samples",
                             "weights", "grid",   "field",  "img",
                             "accum",  "scratch", "lhs",    "rhs"};
const char *IndexNames[] = {"idx", "tid", "pos", "cursor", "index",
                            "work_id", "item", "lane"};
const char *ScalarNames[] = {"count", "total", "len", "num_items",
                             "elements", "problem_size", "dim_x"};
const char *LocalNames[] = {"cache", "shared_buf", "sdata", "block",
                            "tile_mem", "staging"};
const char *MiscNames[] = {"val",  "tmp",  "partial", "current", "prev_v",
                           "next_v", "accv", "pivot",  "theta",   "factor"};

const char *CommentHeaders[] = {
    "/*\n * OpenCL kernel extracted from production code.\n */\n",
    "// Auto-tuned device kernel. Do not edit by hand.\n",
    "/* Copyright (c) project authors. BSD license. */\n",
    "// TODO: benchmark against the CUDA implementation\n",
    "/* Device-side implementation. See host.c for the setup code. */\n",
};

const char *InlineComments[] = {
    "  // accumulate partial results\n",
    "  // NB: assumes power-of-two input\n",
    "  /* each work item handles one element */\n",
    "  // index into the flattened array\n",
};

/// Renames the fixed identifier set used by the pattern library to
/// randomly chosen human names (consistently within one file).
std::string humanise(std::string Src, Rng &R) {
  auto Pick = [&R](const auto &Pool) {
    return std::string(Pool[R.bounded(std::size(Pool))]);
  };
  // Pattern sources draw from this closed set of names.
  const char *PatternVars[] = {"a",  "b",   "c",    "x",    "y",
                               "in", "out", "data", "vals", "cols",
                               "hist", "seeds", "sorted", "keys",
                               "adj", "dist", "frontier", "prev",
                               "cost", "next", "t", "px", "py", "fx",
                               "price", "strike", "call", "put",
                               "points", "centroids", "labels", "m",
                               "o", "v"};
  std::vector<std::string> Used;
  for (const char *Var : PatternVars) {
    // Leave some names untouched for variety.
    if (R.chance(0.3))
      continue;
    std::string Fresh;
    for (int Attempt = 0; Attempt < 8; ++Attempt) {
      switch (R.bounded(4)) {
      case 0: Fresh = Pick(BufferNames); break;
      case 1: Fresh = Pick(MiscNames); break;
      case 2: Fresh = Pick(LocalNames); break;
      default: Fresh = Pick(BufferNames); break;
      }
      bool Clash = false;
      for (const std::string &U : Used)
        Clash |= U == Fresh;
      if (!Clash)
        break;
    }
    Used.push_back(Fresh);
    Src = replaceWord(Src, Var, Fresh);
  }
  if (R.chance(0.6))
    Src = replaceWord(Src, "i", Pick(IndexNames));
  if (R.chance(0.6))
    Src = replaceWord(Src, "n", Pick(ScalarNames));
  if (R.chance(0.5))
    Src = replaceWord(Src, "tile", Pick(LocalNames));
  return Src;
}

/// Adds GitHub-style noise: comments, macros, conditional compilation.
std::string addNoise(std::string Src, Rng &R) {
  std::string Out;
  if (R.chance(0.7))
    Out += CommentHeaders[R.bounded(std::size(CommentHeaders))];

  if (R.chance(0.35)) {
    // Type macro indirection, Figure 5a style.
    Out += "#define DTYPE float\n";
    Src = replaceWord(Src, "float", "DTYPE");
  } else if (R.chance(0.2)) {
    Out += "#ifdef USE_DOUBLE\n#define REAL double\n#else\n#define REAL "
           "float\n#endif\n";
    Src = replaceWord(Src, "float", "REAL");
  }
  if (R.chance(0.25)) {
    Out += "#define SCALE(v) ((v) * 2.0f)\n";
    // Wrap the first multiplication by 2.0f if present.
    size_t Pos = Src.find("* 2.0f");
    if (Pos != std::string::npos) {
      // Leave as-is; the macro simply rides along unused sometimes.
    }
  }
  Out += "\n";

  // Sprinkle inline comments at statement boundaries.
  std::string Final;
  for (const std::string &Line : splitLines(Src)) {
    Final += Line;
    Final += '\n';
    if (R.chance(0.06))
      Final += InlineComments[R.bounded(std::size(InlineComments))];
  }
  return Out + Final;
}

/// Renders a random valid pattern kernel in raw style.
std::string rawValidKernel(Rng &R, const std::string &KernelName) {
  auto Kinds = suites::allPatternKinds();
  suites::PatternKind Kind = Kinds[R.bounded(Kinds.size())];
  suites::PatternStyle Style;
  // Knob ranges span everything the benchmark suites use, so the corpus
  // (and hence CLgen's samples) covers the same feature-space regions.
  Style.ComputeIntensity = 1 + static_cast<int>(R.bounded(6));
  Style.ExtraBranching = R.chance(0.3);
  const int IterChoices[] = {16, 24, 32, 48, 64, 96, 128, 160};
  Style.InnerIterations =
      IterChoices[R.bounded(std::size(IterChoices))];
  if (R.chance(0.25))
    Style.VectorWidth = R.chance(0.5) ? 4 : 2;
  std::string Src = suites::renderPattern(Kind, Style, KernelName);
  return humanise(std::move(Src), R);
}

/// The Figure 5a content file, verbatim (macro-indirected SAXPY with a
/// helper function).
std::string figure5aFile() {
  return "#define DTYPE float\n"
         "#define ALPHA(a) 3.5f * a\n"
         "inline DTYPE ax(DTYPE x) { return ALPHA(x); }\n"
         "\n"
         "__kernel void saxpy(/* SAXPY kernel */\n"
         "                    __global DTYPE* input1,\n"
         "                    __global DTYPE* input2,\n"
         "                    const int nelem) {\n"
         "  unsigned int idx = get_global_id(0);\n"
         "  // = ax + y\n"
         "  if (idx < nelem) {\n"
         "    input2[idx] += ax(input1[idx]); }}\n";
}

/// A valid file with a helper function in use.
std::string helperFile(Rng &R) {
  const char *Helpers[] = {
      "inline float squash(float v) { return v / (1.0f + fabs(v)); }\n",
      "inline float weight(float v, float w) { return v * w + 0.5f; }\n",
      "float relu(float v) { if (v < 0.0f) { return 0.0f; } return v; }\n",
  };
  int H = static_cast<int>(R.bounded(std::size(Helpers)));
  std::string Call[] = {"squash(input[idx])",
                        "weight(input[idx], 0.75f)", "relu(input[idx])"};
  return std::string(Helpers[H]) +
         "\n__kernel void apply_fn(__global float* input, __global float* "
         "output, const int count) {\n"
         "  int idx = get_global_id(0);\n"
         "  if (idx < count) {\n"
         "    output[idx] = " +
         Call[H] + ";\n  }\n}\n";
}

/// A shim-fixable file: valid code relying on identifiers the shim
/// provides.
std::string shimFixableFile(Rng &R) {
  switch (R.bounded(3)) {
  case 0:
    // Project typedef lost with the host code.
    return "__kernel void scale_buf(__global FLOAT_T* buf, const int "
           "count) {\n"
           "  int idx = get_global_id(0);\n"
           "  if (idx < count) {\n"
           "    buf[idx] = buf[idx] * 0.5f;\n  }\n}\n";
  case 1:
    // Work-group size constant from a build script -D flag.
    return "__kernel void block_sum(__global float* input, __global float* "
           "output, const int count) {\n"
           "  __local float cache[WG_SIZE];\n"
           "  int lid = get_local_id(0) % WG_SIZE;\n"
           "  cache[lid] = input[get_global_id(0) % count];\n"
           "  barrier(CLK_LOCAL_MEM_FENCE);\n"
           "  if (lid == 0) {\n"
           "    float s = 0.0f;\n"
           "    for (int k = 0; k < WG_SIZE; k++) {\n      s += cache[k];\n"
           "    }\n"
           "    output[get_group_id(0) % count] = s;\n  }\n}\n";
  default:
    // Numeric constants from a missing project header.
    return "typedef float myreal;\n"
           "__kernel void decay(__global myreal* field, const int count) "
           "{\n"
           "  int idx = get_global_id(0);\n"
           "  if (idx < count) {\n"
           "    field[idx] = field[idx] * GAMMA + EPSILON * ALPHA;\n"
           "  }\n}\n";
  }
}

/// A file that no shim can save.
std::string hopelessFile(Rng &R, const std::string &ValidSeed) {
  switch (R.bounded(6)) {
  case 0:
    // Host-side C++ that the scraper misclassified.
    return "#include <vector>\n#include \"runner.h\"\n\n"
           "using namespace std;\n\n"
           "class KernelRunner {\n public:\n  void run(int device);\n"
           " private:\n  vector<float> data_;\n};\n";
  case 1:
    // User-defined aggregate types (unsupported input class).
    return "typedef struct {\n  float x;\n  float y;\n} point_t;\n\n"
           "__kernel void move_points(__global point_t* pts, const int n) "
           "{\n  int i = get_global_id(0);\n  if (i < n) {\n"
           "    pts[i].x += 0.1f;\n  }\n}\n";
  case 2: {
    // Truncated download.
    std::string Cut = ValidSeed.substr(0, ValidSeed.size() * 3 / 5);
    return Cut;
  }
  case 3:
    // switch statements are outside the modelled subset.
    return "__kernel void dispatch(__global int* v, const int n, const int "
           "mode) {\n  int i = get_global_id(0);\n  switch (mode) {\n"
           "  case 0: v[i] = 0; break;\n  default: v[i] = 1; break;\n"
           "  }\n}\n";
  case 4:
    // Undeclared project identifier the shim does not know.
    return "__kernel void apply_lut(__global float* buf, const int n) {\n"
           "  int i = get_global_id(0);\n"
           "  if (i < n) {\n"
           "    buf[i] = buf[i] * MY_PROJECT_LUT_SCALE;\n  }\n}\n";
  default:
    // Below the minimum static instruction count.
    return "__kernel void noop(__global float* unused) {}\n";
  }
}

} // namespace

std::vector<corpus::ContentFile>
githubsim::mineGithub(const GithubSimOptions &Opts) {
  Rng R(Opts.Seed);
  std::vector<corpus::ContentFile> Files;
  Files.reserve(Opts.FileCount);

  for (size_t I = 0; I < Opts.FileCount; ++I) {
    corpus::ContentFile File;
    File.Path = formatString("repo_%03zu/kernels/file_%04zu.cl",
                             I % 793, I);
    double Roll = R.uniform();
    if (Roll < Opts.HopelessFraction) {
      std::string Seed = rawValidKernel(R, formatString("kern_%zu", I));
      File.Text = hopelessFile(R, addNoise(Seed, R));
    } else if (Roll < Opts.HopelessFraction + Opts.ShimFixableFraction) {
      File.Text = addNoise(shimFixableFile(R), R);
    } else {
      // Valid file.
      double Kind = R.uniform();
      if (Kind < 0.05) {
        File.Text = figure5aFile();
      } else if (Kind < 0.15) {
        File.Text = helperFile(R);
      } else {
        std::string Body = rawValidKernel(R, formatString("kern_%zu", I));
        if (R.chance(Opts.MultiKernelFraction)) {
          Body += '\n';
          Body += rawValidKernel(R, formatString("kern_%zu_b", I));
        }
        File.Text = addNoise(Body, R);
      }
    }
    Files.push_back(std::move(File));
  }
  return Files;
}
