// Microbenchmarks (google-benchmark) of the device primitives the paper's
// kernel is built from — "two efficient primitives transform() and
// sorting() implemented in the Thrust library" (§III-C) — plus the
// serial-side building blocks (s-minima insertion sort, shingle hashing).
// Real host throughput; the modeled device seconds are exercised too but
// the metric reported here is wall time of the simulation itself.

#include <benchmark/benchmark.h>

#include "core/minhash.hpp"
#include "core/shingle.hpp"
#include "device/primitives.hpp"
#include "util/rng.hpp"

namespace gpclust {
namespace {

device::DeviceContext& bench_ctx() {
  static device::DeviceContext ctx(
      device::DeviceSpec::small_test_device(512 << 20));
  return ctx;
}

void BM_DeviceTransformHash(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto& ctx = bench_ctx();
  std::vector<u32> host(n);
  util::Xoshiro256 rng(1);
  for (auto& x : host) x = static_cast<u32>(rng.next());
  device::DeviceVector<u32> in(ctx, n);
  device::copy_to_device<u32>(in, host);
  device::DeviceVector<u64> out(ctx, n);
  const core::AffineHash h{.a = 0x9e3779b9, .b = 12345,
                           .p = util::kMersenne61};
  for (auto _ : state) {
    device::transform(in, out, [h](u32 v) { return h(v); });
    benchmark::DoNotOptimize(out.device_span().data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_DeviceTransformHash)->Range(1 << 10, 1 << 20);

void BM_DeviceSegmentedSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t seg_len = 64;  // degree-scale segments
  auto& ctx = bench_ctx();
  util::Xoshiro256 rng(2);
  std::vector<u64> host(n);
  for (auto& x : host) x = rng.next();
  std::vector<u64> offsets = {0};
  while (offsets.back() < n) {
    offsets.push_back(std::min<u64>(n, offsets.back() + seg_len));
  }
  device::DeviceVector<u64> data(ctx, n);
  for (auto _ : state) {
    state.PauseTiming();
    device::copy_to_device<u64>(data, host);
    state.ResumeTiming();
    device::segmented_sort(data, offsets);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_DeviceSegmentedSort)->Range(1 << 12, 1 << 19);

void BM_DeviceSortByKey(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto& ctx = bench_ctx();
  util::Xoshiro256 rng(3);
  std::vector<u64> keys_h(n);
  std::vector<u32> values_h(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys_h[i] = rng.next();
    values_h[i] = static_cast<u32>(i);
  }
  device::DeviceVector<u64> keys(ctx, n);
  device::DeviceVector<u32> values(ctx, n);
  for (auto _ : state) {
    state.PauseTiming();
    device::copy_to_device<u64>(keys, keys_h);
    device::copy_to_device<u32>(values, values_h);
    state.ResumeTiming();
    device::sort_by_key(keys, values);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_DeviceSortByKey)->Range(1 << 12, 1 << 18);

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
