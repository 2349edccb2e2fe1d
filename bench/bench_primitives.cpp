// Microbenchmarks (google-benchmark) of the shingling kernel's building
// blocks: the s-minima selection every trial runs per adjacency list (the
// insertion-sort variant and its heap ablation partner) and shingle
// hashing. Real host wall time.

#include <benchmark/benchmark.h>

#include "core/minhash.hpp"
#include "core/shingle.hpp"
#include "util/rng.hpp"

namespace gpclust {
namespace {

void BM_SerialMinSImages(benchmark::State& state) {
  const std::size_t degree = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(4);
  std::vector<VertexId> gamma(degree);
  for (auto& v : gamma) v = static_cast<VertexId>(rng.next_below(1u << 24));
  const core::AffineHash h{.a = 48271, .b = 11, .p = util::kMersenne61};
  std::vector<u64> out(2);
  for (auto _ : state) {
    core::min_s_images(gamma, h, 2, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(degree));
}
BENCHMARK(BM_SerialMinSImages)->Arg(8)->Arg(44)->Arg(73)->Arg(512);

void BM_SerialMinSImagesHeap(benchmark::State& state) {
  // Ablation partner of BM_SerialMinSImages: the paper argues a simple
  // insertion sort beats heavier selection machinery for small s.
  const std::size_t degree = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(4);
  std::vector<VertexId> gamma(degree);
  for (auto& v : gamma) v = static_cast<VertexId>(rng.next_below(1u << 24));
  const core::AffineHash h{.a = 48271, .b = 11, .p = util::kMersenne61};
  std::vector<u64> out(2);
  for (auto _ : state) {
    core::min_s_images_heap(gamma, h, 2, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(degree));
}
BENCHMARK(BM_SerialMinSImagesHeap)->Arg(8)->Arg(44)->Arg(73)->Arg(512);

void BM_HashShingle(benchmark::State& state) {
  const std::vector<u64> minima = {123456789ULL, 987654321ULL};
  u32 trial = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::hash_shingle(trial++ & 0xff, minima));
  }
}
BENCHMARK(BM_HashShingle);

}  // namespace
}  // namespace gpclust

BENCHMARK_MAIN();
