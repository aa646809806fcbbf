// Benchmark harness: runs one workload, checks its outputs and prints one
// JSON result line (perfbench/README.md). perfbench/run.py builds this
// binary and is the command users run.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --work-dir <dir> --pins <file>
//   perfbench_harness --workload <name> --seed <n> --digest-only 1 ...
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "report.hpp"
#include "timing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool digest_only = false;
  std::string work_dir = ".";
  std::string pins;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + k);
    kv[k.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) throw std::runtime_error("flags come in pairs");
  Args a;
  auto need = [&kv](const char* k) {
    auto it = kv.find(k);
    if (it == kv.end()) throw std::runtime_error(std::string("--") + k + " is required");
    return it->second;
  };
  a.workload = need("workload");
  a.seed = std::stoull(need("seed"));
  if (kv.count("seconds")) a.seconds = std::stod(kv["seconds"]);
  if (kv.count("trace")) a.trace = kv["trace"] == "1";
  if (kv.count("digest-only")) a.digest_only = kv["digest-only"] == "1";
  if (kv.count("work-dir")) a.work_dir = kv["work-dir"];
  if (kv.count("pins")) a.pins = kv["pins"];
  return a;
}

/// Pinned digests: lines of "<workload> <seed> <digest>"; '#' comments.
std::map<std::pair<std::string, std::uint64_t>, std::string> read_pins(
    const std::string& path) {
  std::map<std::pair<std::string, std::uint64_t>, std::string> pins;
  if (path.empty()) return pins;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pins file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, digest;
    std::uint64_t seed = 0;
    if (!(ls >> w >> seed >> digest)) {
      throw std::runtime_error("bad pins line: " + line);
    }
    pins[{w, seed}] = digest;
  }
  return pins;
}

std::string write_spec(const Args& a) {
  const std::string spec = render_spec(a.workload, a.seed);
  const std::string path = a.work_dir + "/" + a.workload + "-" +
                           std::to_string(a.seed) + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << spec;
  if (!out) throw std::runtime_error("cannot write " + path);
  return path;
}

int run(const Args& a) {
  const std::string spec_path = write_spec(a);
  const auto pins = read_pins(a.pins);

  if (a.digest_only) {
    const Rep rep = run_rep(spec_path);
    std::cout << a.workload << ' ' << a.seed << ' ' << rep.outcome.digest
              << '\n';
    return rep.outcome.problems.empty() ? 0 : 1;
  }

  Result res;
  std::vector<std::string> problems;
  const auto pin = pins.find({a.workload, a.seed});
  std::fprintf(stderr, "pinned digest: %s\n",
               pin == pins.end() ? "none for this seed" : pin->second.c_str());
  auto check = [&](const Outcome& o, const std::string& first_digest) {
    for (const auto& p : o.problems) problems.push_back(p);
    if (o.digest != first_digest) {
      problems.push_back("repetitions disagree: digest " + o.digest +
                         " vs " + first_digest);
    }
    if (pin != pins.end() && pin->second != o.digest) {
      problems.push_back("digest " + o.digest + " != pinned " +
                         pin->second);
    }
  };

  if (a.trace) {
    res = trace_layers(spec_path);
    check(res.outcome, res.outcome.digest);
  } else {
    // Repeat the fixed input until the time budget is spent (at least
    // three times), then report medians.
    const auto t0 = Clock::now();
    std::vector<Rep> reps;
    while (reps.size() < 3 || seconds_since(t0) < a.seconds) {
      reps.push_back(run_rep(spec_path));
      const Rep& r = reps.back();
      check(r.outcome, reps.front().outcome.digest);
      std::fprintf(stderr, "rep %zu: %lld frames in %.4f s, set-up %.4f ms\n",
                   reps.size(), static_cast<long long>(r.outcome.released),
                   r.run_phase_s, 1e3 * median(r.setup_s));
    }
    res = end_to_end(reps);
  }
  const Outcome& o = res.outcome;
  std::fprintf(stderr,
               "outcome: digest %s; %lld released = %lld on time + %lld "
               "late + %lld dropped (%lld shed) + %lld faulted + %lld in "
               "flight; latency p50 %.4f / p99 %.4f ms over %lld samples\n",
               o.digest.c_str(), static_cast<long long>(o.released),
               static_cast<long long>(o.on_time),
               static_cast<long long>(o.late),
               static_cast<long long>(o.dropped),
               static_cast<long long>(o.shed),
               static_cast<long long>(o.faulted),
               static_cast<long long>(o.in_flight), o.p50_ms, o.p99_ms,
               static_cast<long long>(o.latency_samples));
  res.correct = problems.empty();
  for (const auto& p : problems) std::cerr << "CHECK FAILED: " << p << '\n';
  print_result(res, std::cout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << '\n';
    return 2;
  }
}
