// spcache_trace_gen — materialize the library's workload generators as CSV
// files, for inspection, external tooling, or replay via
// `spcache_cli --catalog ... --arrivals ...`. Usage (one command):
//
//   spcache_trace_gen --out-catalog cat.csv --out-arrivals arr.csv
//                     [--files 500] [--size-mb 100] [--zipf 1.05] [--rate 18]
//                     [--requests 20000] [--yahoo] [--bursty] [--seed 1]
//
// --yahoo  : Yahoo!-like size distribution (hot files 15-30x larger)
// --bursty : MMPP arrivals (bursty) instead of Poisson
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "workload/arrivals.h"
#include "workload/trace_io.h"

using namespace spcache;

namespace {

struct Options {
  std::string out_catalog;
  std::string out_arrivals;
  std::size_t files = 500;
  double size_mb = 100.0;
  double zipf = 1.05;
  double rate = 18.0;
  std::size_t requests = 20000;
  bool yahoo = false;
  bool bursty = false;
  std::uint64_t seed = 1;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "spcache_trace_gen: " << message
            << "\nSee the header of tools/spcache_trace_gen.cpp.\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--out-catalog") {
      o.out_catalog = value();
    } else if (flag == "--out-arrivals") {
      o.out_arrivals = value();
    } else if (flag == "--files") {
      o.files = static_cast<std::size_t>(std::atoll(value().c_str()));
    } else if (flag == "--size-mb") {
      o.size_mb = std::atof(value().c_str());
    } else if (flag == "--zipf") {
      o.zipf = std::atof(value().c_str());
    } else if (flag == "--rate") {
      o.rate = std::atof(value().c_str());
    } else if (flag == "--requests") {
      o.requests = static_cast<std::size_t>(std::atoll(value().c_str()));
    } else if (flag == "--yahoo") {
      o.yahoo = true;
    } else if (flag == "--bursty") {
      o.bursty = true;
    } else if (flag == "--seed") {
      o.seed = static_cast<std::uint64_t>(std::atoll(value().c_str()));
    } else if (flag == "--help" || flag == "-h") {
      std::cout << "See the header comment of tools/spcache_trace_gen.cpp.\n";
      std::exit(0);
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (o.out_catalog.empty() && o.out_arrivals.empty()) {
    usage_error("nothing to do: pass --out-catalog and/or --out-arrivals");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Rng rng(o.seed);

  const Catalog catalog =
      o.yahoo ? make_yahoo_catalog(o.files, o.zipf, o.rate, YahooSizeModel{}, rng)
              : make_uniform_catalog(o.files, megabytes(o.size_mb), o.zipf, o.rate);

  if (!o.out_catalog.empty()) {
    save_catalog_csv_file(catalog, o.out_catalog);
    std::cout << "wrote catalog: " << o.out_catalog << " (" << catalog.size() << " files, "
              << static_cast<double>(catalog.total_bytes()) / static_cast<double>(kGB)
              << " GB, " << catalog.total_rate() << " req/s)\n";
  }
  if (!o.out_arrivals.empty()) {
    std::vector<Arrival> arrivals;
    if (o.bursty) {
      MmppParams mmpp;
      mmpp.calm_rate = o.rate / 2.0;
      mmpp.burst_rate = o.rate * 4.0;
      arrivals = generate_mmpp_arrivals(catalog, mmpp, o.requests, rng);
    } else {
      arrivals = generate_poisson_arrivals(catalog, o.requests, rng);
    }
    save_arrivals_csv_file(arrivals, o.out_arrivals);
    std::cout << "wrote arrivals: " << o.out_arrivals << " (" << arrivals.size()
              << " requests over " << arrivals.back().time << " s"
              << (o.bursty ? ", bursty" : ", Poisson") << ")\n";
  }
  return 0;
}
