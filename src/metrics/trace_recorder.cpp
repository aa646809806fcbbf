#include "metrics/trace_recorder.hpp"

#include "common/check.hpp"
#include "common/json_writer.hpp"

namespace sgprs::metrics {

void TraceRecorder::on_kernel_start(gpu::SimTime t, int context, int stream,
                                    const gpu::KernelDesc& k) {
  const auto key = std::make_pair(context, stream);
  SGPRS_CHECK_MSG(!open_.contains(key),
                  "two kernels running on one stream (ctx " << context
                                                            << ")");
  open_.emplace(key, std::make_pair(t, k));
}

void TraceRecorder::on_kernel_end(gpu::SimTime t, int context, int stream,
                                  const gpu::KernelDesc& k) {
  const auto key = std::make_pair(context, stream);
  auto it = open_.find(key);
  SGPRS_CHECK_MSG(it != open_.end(), "kernel end without start");
  const auto& [start, desc] = it->second;
  Event e;
  e.name = desc.label.empty() ? std::string(gpu::to_string(k.op))
                              : std::string(desc.label);
  e.context = context;
  e.stream = stream;
  e.start_us = start.ns / 1000;
  e.dur_us = (t - start).ns / 1000;
  e.tag = desc.tag;
  events_.push_back(std::move(e));
  open_.erase(it);
}

void TraceRecorder::write_json(std::ostream& out) const {
  common::JsonWriter w(out);
  w.begin_object().key("traceEvents").begin_array();
  for (const auto& e : events_) {
    w.begin_object()
        .field("name", e.name)
        .field("cat", "kernel")
        .field("ph", "X")
        .field("ts", e.start_us)
        .field("dur", e.dur_us)
        .field("pid", e.context)
        .field("tid", e.stream);
    w.key("args").begin_object().field("job", static_cast<std::int64_t>(
                                                  e.tag));
    w.end_object();
    w.end_object();
  }
  w.end_array().field("displayTimeUnit", "ms").end_object();
}

}  // namespace sgprs::metrics
