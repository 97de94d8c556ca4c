#include "workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

// Salts that give each input its own random stream under one seed.
constexpr std::uint64_t kCatalogSalt = 0xC47A1060ull;
constexpr std::uint64_t kPlacementSalt = 0x91ACE000ull;
constexpr std::uint64_t kScheduleSalt = 0x5C4ED01Eull;
constexpr std::uint64_t kMixSalt = 0x0B5E7A11ull;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }

std::uint64_t version_key(FileId f, std::uint32_t version) {
  if (version == 0) return 0;
  return splitmix64((static_cast<std::uint64_t>(f) << 32) ^ version) | 1;
}

constexpr std::size_t kHeader = 8;
// Smallest stored file: room for the version header and some body.
constexpr Bytes kMinFileBytes = 256;
// Aggregate request rate of the model-scale catalog Algorithm 1 sees.
constexpr double kModelRate = 1.0;

std::vector<WorkloadSpec> make_specs() {
  std::vector<WorkloadSpec> specs;
  {
    // The paper's read workload (Section 7.1): Zipf 1.05 over a Yahoo-like
    // catalog whose 1000 layouts all fit the client's 4096-entry layout
    // cache. Algorithm 1 splits the hot files into 2-3 pieces, tens of KiB
    // each, so reads exercise the large-payload transport path, worker
    // serve and client reassembly while the master idles.
    WorkloadSpec s;
    s.name = "zipf-read";
    s.dataset_seed = 1;
    s.files = 1000;
    s.zipf = 1.05;
    s.mean_read_bytes = 192.0 * 1024;
    s.open_rate = 2200.0;
    s.warm_ops = 6000;
    s.load_passes = 3;
    s.prefetch_layouts = true;
    specs.push_back(s);
  }
  {
    // The trace's long tail: 16384 small single-piece files, four times the
    // layout cache, under mild skew, so most reads pay a master LOOKUP plus
    // a GET and every reply stays below the 4 KiB direct-decode threshold.
    WorkloadSpec s;
    s.name = "tail-read";
    s.dataset_seed = 2;
    s.files = 16384;
    s.zipf = 0.5;
    s.sizes.hot_fraction = 0.0;
    s.sizes.warm_fraction = 0.0;
    s.sizes.lognormal_sigma = 0.5;
    s.mean_read_bytes = 1536.0;
    s.max_file_bytes = 4000;
    s.open_rate = 7000.0;
    s.warm_ops = 12000;
    specs.push_back(s);
  }
  {
    // zipf-read's catalog with popularity-weighted overwrites: each write
    // puts a new version of the same size on the same servers, bumping the
    // epoch at the master and checkpointing the whole file.
    WorkloadSpec s = specs.front();
    s.name = "overwrite-mix";
    s.write_share = 0.1;
    s.load_passes = 1;  // its write metrics come from the open loop
    s.open_rate = 1800.0;
    specs.push_back(s);
  }
  return specs;
}

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = make_specs();
  return all;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, double open_seconds) {
  Inputs in;
  spcache::Rng catalog_rng(spec.dataset_seed ^ kCatalogSalt);
  in.catalog =
      spcache::make_yahoo_catalog(spec.files, spec.zipf, kModelRate, spec.sizes, catalog_rng);
  double mean_read = 0.0;
  for (FileId f = 0; f < in.catalog.size(); ++f) {
    mean_read += in.catalog.popularity(f) * static_cast<double>(in.catalog.file(f).size);
  }
  const double scale = spec.mean_read_bytes / mean_read;
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (FileId f = 0; f < in.catalog.size(); ++f) {
    const double scaled = static_cast<double>(in.catalog.file(f).size) * scale;
    auto bytes = static_cast<Bytes>(std::llround(scaled));
    bytes = std::max(bytes, kMinFileBytes);
    if (spec.max_file_bytes > 0) bytes = std::min(bytes, spec.max_file_bytes);
    in.sizes.push_back(bytes);
    h = fnv1a(h, in.catalog.file(f).size);
    h = fnv1a(h, std::bit_cast<std::uint64_t>(in.catalog.file(f).request_rate));
    h = fnv1a(h, bytes);
  }
  in.catalog_digest = h;
  // Catalog::sample_file builds its CDF lazily; build it here, before any
  // thread samples concurrently.
  spcache::Rng warm(0);
  (void)in.catalog.sample_file(warm);

  spcache::Catalog offered = in.catalog;
  offered.set_total_rate(spec.open_rate);
  const auto n = static_cast<std::size_t>(std::ceil(spec.open_rate * open_seconds * 1.1)) + 64;
  spcache::Rng schedule_rng(seed ^ kScheduleSalt);
  spcache::Rng mix_rng(seed ^ kMixSalt);
  h = 0xCBF29CE484222325ull;
  for (const auto& a : spcache::generate_poisson_arrivals(offered, n, schedule_rng)) {
    Op op{a.time, a.file, spec.write_share > 0.0 && mix_rng.bernoulli(spec.write_share)};
    in.schedule.push_back(op);
    h = fnv1a(h, static_cast<std::uint64_t>(std::llround(op.due_s * 1e9)));
    h = fnv1a(h, (static_cast<std::uint64_t>(op.file) << 1) | (op.write ? 1 : 0));
  }
  in.schedule_digest = h;
  return in;
}

Placement place(const WorkloadSpec& spec, const Inputs& in) {
  // The daemons' modelled links (spcache_serverd --bandwidth-gbps, 1 Gbps).
  const std::vector<spcache::Bandwidth> bandwidth(3, spcache::gbps(1.0));
  spcache::SpCacheScheme scheme;
  spcache::Rng rng(spec.dataset_seed ^ kPlacementSalt);
  scheme.place(in.catalog, bandwidth, rng);
  Placement p;
  p.alpha = scheme.alpha();
  std::uint64_t h = fnv1a(0xCBF29CE484222325ull, std::bit_cast<std::uint64_t>(p.alpha));
  for (FileId f = 0; f < in.catalog.size(); ++f) {
    p.servers.push_back(scheme.placement(f).servers);
    for (const auto s : p.servers.back()) h = fnv1a(h, (static_cast<std::uint64_t>(f) << 8) | s);
  }
  p.digest = h;
  return p;
}

OpStream::OpStream(const Inputs& in, double write_share, std::uint64_t seed,
                   std::uint64_t stream)
    : in_(in), write_share_(write_share), rng_(splitmix64(seed ^ splitmix64(stream))) {}

Op OpStream::next() {
  Op op;
  op.file = in_.catalog.sample_file(rng_);
  op.write = write_share_ > 0.0 && rng_.bernoulli(write_share_);
  return op;
}

std::vector<std::uint8_t> base_content(std::uint64_t seed, FileId f, Bytes size) {
  std::vector<std::uint8_t> out(size);
  std::uint64_t x = splitmix64(seed ^ (static_cast<std::uint64_t>(f) << 20));
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    x = splitmix64(x);
    store64(out.data() + i, x);
  }
  x = splitmix64(x);
  for (; i < out.size(); ++i) out[i] = static_cast<std::uint8_t>(x >> (8 * (i % 8)));
  return out;
}

void versioned_content(std::span<const std::uint8_t> base, FileId f, std::uint32_t version,
                       std::vector<std::uint8_t>& out) {
  out.resize(base.size());
  store64(out.data(), (static_cast<std::uint64_t>(version) << 32) | f);
  const std::uint64_t key = version_key(f, version);
  std::size_t i = kHeader;
  for (; i + 8 <= base.size(); i += 8) store64(out.data() + i, load64(base.data() + i) ^ key);
  for (; i < base.size(); ++i) out[i] = base[i] ^ static_cast<std::uint8_t>(key >> (8 * (i % 8)));
}

std::int64_t decode_version(std::span<const std::uint8_t> bytes,
                            std::span<const std::uint8_t> base, FileId f) {
  if (bytes.size() != base.size() || bytes.size() < kHeader) return -1;
  const std::uint64_t header = load64(bytes.data());
  if ((header & 0xFFFFFFFFull) != f) return -1;
  const auto version = static_cast<std::uint32_t>(header >> 32);
  const std::uint64_t key = version_key(f, version);
  std::size_t i = kHeader;
  for (; i + 8 <= bytes.size(); i += 8) {
    if ((load64(bytes.data() + i) ^ key) != load64(base.data() + i)) return -1;
  }
  for (; i < bytes.size(); ++i) {
    if ((bytes[i] ^ static_cast<std::uint8_t>(key >> (8 * (i % 8)))) != base[i]) return -1;
  }
  return version;
}

}  // namespace perfbench
