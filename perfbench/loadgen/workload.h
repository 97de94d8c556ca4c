// The benchmark's workloads: what each one reads and writes, and why.
//
// A workload's catalog (make_yahoo_catalog) and its placement
// (SpCacheScheme::place, Eq. 1 with Algorithm 1's alpha over the three
// workers) are part of its definition: both are drawn from the workload's
// fixed dataset seed, so bytes per read, pieces per read, memory and the
// Eq. 15 balance are the same in every run. The run seed draws everything
// else: the open-loop schedule (generate_poisson_arrivals), the closed-loop
// and warm-up operation streams, and every byte of file content. The
// load generator prints a digest of the catalog, placement and schedule.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sp_cache.h"
#include "workload/arrivals.h"
#include "workload/file_catalog.h"

namespace perfbench {

using spcache::Bytes;
using spcache::FileId;

struct WorkloadSpec {
  std::string name;
  std::uint64_t dataset_seed = 0;
  std::size_t files = 0;
  double zipf = 1.05;
  // Sizes as the paper's Yahoo model draws them (MB scale). Algorithm 1 and
  // placement see this catalog at an aggregate 1 request/s, so alpha prices
  // the same transfer-to-overhead ratio as the paper's cluster; the daemons
  // then store every file scaled by one constant that brings the
  // popularity-weighted mean read to `mean_read_bytes`.
  spcache::YahooSizeModel sizes;
  double mean_read_bytes = 0.0;
  Bytes max_file_bytes = 0;  // 0 = no cap
  // Share of operations that overwrite a file (popularity-weighted).
  double write_share = 0.0;
  // Offered rate of the open-loop phase, in operations per second: about
  // 30% of the closed-loop ops_per_s on a 4-vCPU x86 VM. At half, the four
  // dispatch threads are busy often enough that ~8% of requests queue for
  // one, and the 99th percentile then swings with the host's CPU steal.
  double open_rate = 0.0;
  // Closed-loop operations run after set-up and before any timing.
  std::size_t warm_ops = 0;
  // Times set-up writes the dataset, the same bytes each pass. The set-up
  // writes are a read-only workload's only writes, and one pass over a
  // small catalog is too short a window to time them in.
  std::size_t load_passes = 1;
  // Load every layout into the client cache during set-up.
  bool prefetch_layouts = false;
};

// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

struct Placement {
  double alpha = 0.0;
  std::vector<std::vector<std::uint32_t>> servers;  // per file
  std::uint64_t digest = 0;
};

struct Op {
  double due_s = 0.0;  // open loop only
  FileId file = 0;
  bool write = false;
};

struct Inputs {
  spcache::Catalog catalog;            // model scale, for placement
  std::vector<Bytes> sizes;            // stored bytes per file
  std::vector<Op> schedule;            // open-loop arrivals, whole run
  std::uint64_t catalog_digest = 0;
  std::uint64_t schedule_digest = 0;
};

// Catalog, stored sizes and the open-loop schedule covering
// `open_seconds` of offered load.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, double open_seconds);

// Eq. 1 placement with Algorithm 1's alpha over the three workers.
Placement place(const WorkloadSpec& spec, const Inputs& in);

// Popularity-weighted draws for the closed loop and warm-up, one stream per
// (seed, purpose, thread).
class OpStream {
 public:
  OpStream(const Inputs& in, double write_share, std::uint64_t seed, std::uint64_t stream);
  Op next();

 private:
  const Inputs& in_;
  double write_share_;
  spcache::Rng rng_;
};

// File content. Version v of file f is the file's base bytes with an
// 8-byte header (f, v) in front and the rest xor-ed with a per-version
// key, so every byte differs between versions and a read that mixes two
// versions matches neither.
std::vector<std::uint8_t> base_content(std::uint64_t seed, FileId f, Bytes size);
void versioned_content(std::span<const std::uint8_t> base, FileId f, std::uint32_t version,
                       std::vector<std::uint8_t>& out);
// The version `bytes` holds, or -1 when it is no version of file f.
std::int64_t decode_version(std::span<const std::uint8_t> bytes,
                            std::span<const std::uint8_t> base, FileId f);

}  // namespace perfbench
