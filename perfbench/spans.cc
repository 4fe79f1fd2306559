#include "spans.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>

namespace perfbench {

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, spans[i].start_ns);
      hi = std::min(hi, spans[i].end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

namespace {
std::atomic<uint64_t> next_log_id{1};

struct ThreadCache {
  uint64_t log_id = 0;
  void* buf = nullptr;
};
thread_local ThreadCache tls_cache;
}  // namespace

SpanLog::SpanLog() : id_(next_log_id.fetch_add(1)) {}

uint32_t SpanLog::Name(const std::string& name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

SpanLog::ThreadBuf* SpanLog::Buf() {
  // A log id, not the address, identifies the log: a later log may be
  // allocated where an earlier one lived.
  if (tls_cache.log_id == id_) return static_cast<ThreadBuf*>(tls_cache.buf);
  std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<ThreadBuf>();
  buf->thread = static_cast<uint32_t>(bufs_.size());
  buf->spans.reserve(1 << 16);
  bufs_.push_back(std::move(buf));
  tls_cache = {id_, bufs_.back().get()};
  return bufs_.back().get();
}

void SpanLog::Begin(uint32_t name, uint64_t query) {
  ThreadBuf* b = Buf();
  Span s;
  s.name = name;
  s.thread = b->thread;
  s.parent = b->open.empty() ? -1 : b->open.back();
  s.query = query;
  s.start_ns = NowNs();
  b->spans.push_back(s);
  b->coalesce.push_back(0);
  b->open.push_back(static_cast<int32_t>(b->spans.size() - 1));
}

void SpanLog::End(bool coalescible) {
  const int64_t now = NowNs();
  ThreadBuf* b = Buf();
  const auto idx = static_cast<size_t>(b->open.back());
  b->open.pop_back();
  Span& s = b->spans[idx];
  s.end_ns = now;
  if (!coalescible) return;
  b->coalesce[idx] = 1;
  if (idx + 1 != b->spans.size() || idx == 0) return;  // has children
  Span& prev = b->spans[idx - 1];
  if (b->coalesce[idx - 1] && prev.name == s.name && prev.parent == s.parent) {
    prev.end_ns = now;
    b->spans.pop_back();
    b->coalesce.pop_back();
  }
}

std::map<std::string, LayerTotals> SpanLog::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LayerTotals> out;
  for (const auto& b : bufs_) {
    const std::vector<int64_t> self = SelfTimes(b->spans);
    for (size_t i = 0; i < b->spans.size(); ++i) {
      LayerTotals& t = out[names_[b->spans[i].name]];
      ++t.count;
      t.total_ns += b->spans[i].end_ns - b->spans[i].start_ns;
      t.self_ns += self[i];
    }
  }
  return out;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : bufs_) n += b->spans.size();
  return n;
}

std::string SpanLog::ToJson(size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = INT64_MAX;
  for (const auto& b : bufs_) {
    if (!b->spans.empty()) origin = std::min(origin, b->spans[0].start_ns);
  }
  std::string out = "[";
  char line[256];
  bool first = true;
  for (const auto& b : bufs_) {
    const size_t n = std::min(limit, b->spans.size());
    for (size_t i = 0; i < n; ++i) {
      const Span& s = b->spans[i];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\":\"%s\",\"thread\":%u,\"id\":%zu,"
                    "\"parent\":%d,\"query\":%llu,\"start_us\":%.3f,"
                    "\"end_us\":%.3f}",
                    first ? "" : ",", names_[s.name].c_str(), s.thread, i,
                    s.parent, static_cast<unsigned long long>(s.query),
                    (s.start_ns - origin) / 1e3, (s.end_ns - origin) / 1e3);
      out += line;
      first = false;
    }
  }
  out += "\n]\n";
  return out;
}

}  // namespace perfbench
