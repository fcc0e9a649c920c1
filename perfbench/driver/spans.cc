#include "driver/spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

// Self time of `p` given the indices of its direct children.
int64_t SelfTimeOf(const std::vector<SpanRecord>& spans, const SpanRecord& p,
                   const std::vector<size_t>& children) {
  std::vector<std::pair<int64_t, int64_t>> kids;
  for (size_t c : children) {
    const int64_t b = std::max(spans[c].start_ns, p.start_ns);
    const int64_t e = std::min(spans[c].end_ns, p.end_ns);
    if (e > b) kids.emplace_back(b, e);
  }
  std::sort(kids.begin(), kids.end());
  int64_t covered = 0;
  int64_t cur_b = 0;
  int64_t cur_e = -1;
  for (const auto& [b, e] : kids) {
    if (b > cur_e) {
      if (cur_e > cur_b) covered += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_b) covered += cur_e - cur_b;
  return (p.end_ns - p.start_ns) - covered;
}

std::vector<std::vector<size_t>> ChildrenOf(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<size_t>> kids(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) kids[spans[i].parent].push_back(i);
  }
  return kids;
}

}  // namespace

int64_t SelfTimeNs(const std::vector<SpanRecord>& spans, size_t index) {
  return SelfTimeOf(spans, spans[index], ChildrenOf(spans)[index]);
}

int SpanRecorder::Begin(const std::string& name, int64_t query) {
  if (!enabled_) return -1;
  SpanRecord s;
  s.name = name;
  s.start_ns = Now();
  s.parent = open_.empty() ? -1 : open_.back();
  s.query = query;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[index].end_ns = Now();
  // Spans close in LIFO order; tolerate a skipped End by unwinding to it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void SpanRecorder::Add(const std::string& name, int64_t start_ns,
                       int64_t end_ns, int64_t query) {
  if (!enabled_) return;
  SpanRecord s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  s.query = query;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> SpanRecorder::SelfMsByName() const {
  std::map<std::string, double> out;
  const std::vector<std::vector<size_t>> kids = ChildrenOf(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += SelfTimeOf(spans_, spans_[i], kids[i]) / 1e6;
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d, \"query\": %lld}%s\n",
                 i, s.name.c_str(), s.start_ns / 1e3, s.end_ns / 1e3, s.parent,
                 static_cast<long long>(s.query),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"self_ms_by_name\": {");
  bool first = true;
  for (const auto& [name, ms] : SelfMsByName()) {
    std::fprintf(f, "%s\n  \"%s\": %.6f", first ? "" : ",", name.c_str(), ms);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
