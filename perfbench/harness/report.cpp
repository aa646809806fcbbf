#include "report.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print_result(const Result& r, std::ostream& out) {
  const std::int64_t failed = r.correct ? 0 : r.attempted;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
        << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}" << std::endl;
}

}  // namespace perfbench
