//===- corpus/ShimHeader.cpp - Inferred-identifier shim header ----------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/ShimHeader.h"

using namespace clgen;
using namespace clgen::corpus;

const std::string &corpus::shimHeaderText() {
  static const std::string Text = R"(/* Enable OpenCL features */
#define cl_clang_storage_class_specifiers
#define cl_khr_fp64

/* Inferred types */
typedef float FLOAT_T;
typedef float FLOAT_TYPE;
typedef float DTYPE;
typedef float REAL;
typedef float real;
typedef float Real;
typedef float TYPE;
typedef float VALUE_TYPE;
typedef float DATA_TYPE;
typedef float hmc_float;
typedef float4 hmc_float4;
typedef float scalar_t;
typedef float value_type;
typedef unsigned int INDEX_TYPE;
typedef unsigned int uint32_t;
typedef int int32_t;
typedef unsigned char uint8_t;
typedef unsigned short uint16_t;
typedef long int64_t;
typedef unsigned long uint64_t;
typedef unsigned int UINT;
typedef int INT;
typedef float FPTYPE;
typedef int KEY_T;
typedef float T;

/* Inferred constants */
#define M_PI_VALUE 3.14025f
#define WG_SIZE 128
#define WGSIZE 128
#define WORKGROUP_SIZE 128
#define WORK_GROUP_SIZE 128
#define GROUP_SIZE 128
#define BLOCK_SIZE 64
#define BLOCK_DIM 16
#define TILE_SIZE 16
#define TILE_DIM 16
#define LOCAL_SIZE 64
#define LOCAL_MEM_SIZE 2048
#define LSIZE 64
#define SIZE 1024
#define N 1024
#define NUM 1024
#define COUNT 1024
#define NUM_ELEMENTS 1024
#define ELEMENTS 1024
#define LENGTH 1024
#define WIDTH 256
#define HEIGHT 256
#define DEPTH 64
#define DIM 64
#define DIMS 3
#define RADIUS 4
#define FILTER_SIZE 9
#define KERNEL_RADIUS 4
#define BINS 256
#define NUM_BINS 256
#define ITERATIONS 16
#define MAX_ITERATIONS 64
#define MAX_ITER 64
#define STEPS 16
#define ALPHA 0.5f
#define BETA 0.25f
#define GAMMA 0.9f
#define EPSILON 0.000001f
#define THRESHOLD 0.5f
#define DELTA 0.01f
#define OFFSET 0
#define STRIDE 1
#define SCALE_FACTOR 2
#define WARP_SIZE 32
#define SIMD_WIDTH 32
#define LIMIT 4096
#define ZERO 0.0f
#define ONE 1.0f
)";
  return Text;
}
