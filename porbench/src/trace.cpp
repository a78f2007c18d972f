#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "por/obs/span.hpp"

namespace porbench {

std::uint64_t now_ns() { return por::obs::now_ns(); }

Tracer::Span::Span(Tracer& tracer, const char* name, const char* layer,
                   std::uint64_t job) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  index_ = static_cast<std::int32_t>(tracer.records_.size());
  Record r;
  r.name = name;
  r.layer = layer;
  r.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  r.run = tracer.run_;
  r.job = job;
  r.start_ns = now_ns();
  tracer.records_.push_back(std::move(r));
  tracer.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->records_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_->open_.pop_back();
}

void Tracer::add_lane_span(const std::string& name, const char* layer,
                           std::uint64_t start_ns, std::uint64_t end_ns,
                           std::uint64_t job) {
  if (!enabled_) return;
  // First lane free at `start_ns`, so spans on one lane never overlap
  // and the viewer draws them without false nesting.
  std::size_t lane = 0;
  while (lane < lane_end_.size() && lane_end_[lane] > start_ns) ++lane;
  if (lane == lane_end_.size()) lane_end_.push_back(0);
  lane_end_[lane] = end_ns;
  Record r;
  r.name = name;
  r.layer = layer;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.lane = static_cast<std::uint32_t>(lane + 1);
  r.run = run_;
  r.job = job;
  records_.push_back(std::move(r));
}

double Tracer::covered_seconds(std::uint64_t from_ns,
                               std::uint64_t to_ns) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (const Record& r : records_) {
    if (r.layer == "cycle" || r.layer == "load") continue;
    const std::uint64_t a = std::max(r.start_ns, from_ns);
    const std::uint64_t b = std::min(r.end_ns, to_ns);
    if (b > a) spans.emplace_back(a, b);
  }
  std::sort(spans.begin(), spans.end());
  std::uint64_t total = 0, reached = from_ns;
  for (const auto& [a, b] : spans) {
    if (b <= reached) continue;
    total += b - std::max(a, reached);
    reached = b;
  }
  return static_cast<double>(total) * 1e-9;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::uint64_t> child(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.lane == 0 && r.parent >= 0) {
      child[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.lane != 0) continue;
    const std::uint64_t duration = r.end_ns - r.start_ns;
    const std::uint64_t self = duration > child[i] ? duration - child[i] : 0;
    out[r.layer] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string Tracer::chrome_json(
    const std::map<std::string, std::string>& metadata) const {
  const std::uint64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  bool first = true;
  for (const auto& [key, value] : metadata) {
    out += first ? "" : ",";
    out += "\"" + escape(key) + "\":\"" + escape(value) + "\"";
    first = false;
  }
  out += "},\"traceEvents\":[\n";
  out +=
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"driver\"}}";
  for (std::size_t lane = 1; lane <= lane_end_.size(); ++lane) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(lane) + ",\"args\":{\"name\":\"jobs " +
           std::to_string(lane) + "\"}}";
  }
  char buffer[160];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::uint64_t start = r.start_ns >= origin ? r.start_ns - origin : 0;
    std::snprintf(buffer, sizeof(buffer),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,",
                  r.lane, static_cast<double>(start) * 1e-3,
                  static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
    out += ",\n{\"name\":\"" + escape(r.name) + "\",\"cat\":\"" +
           escape(r.layer) + "\"," + buffer + "\"args\":{\"id\":" +
           std::to_string(i) + ",\"parent\":" + std::to_string(r.parent) +
           ",\"run\":" + std::to_string(r.run) +
           ",\"job\":" + std::to_string(r.job) + "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace porbench
