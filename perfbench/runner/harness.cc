#include "harness.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

constexpr size_t kWindows = 5;

}  // namespace

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

bool Percentile(const Samples& s, double q, double* out_ns,
                std::vector<double>* per_window) {
  const size_t n = s.size();
  const size_t windows = std::min(
      kWindows, static_cast<size_t>(static_cast<double>(n) * (1 - q) / 10));
  if (windows == 0) return false;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return s.at[a] < s.at[b]; });
  std::vector<double> quantiles;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<uint64_t> part;
    for (size_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
      part.push_back(s.ns[order[i]]);
    }
    const size_t idx =
        static_cast<size_t>(q * static_cast<double>(part.size() - 1));
    if (part.size() - 1 - idx < 10) return false;
    std::nth_element(part.begin(), part.begin() + static_cast<long>(idx),
                     part.end());
    quantiles.push_back(static_cast<double>(part[idx]));
  }
  if (per_window != nullptr) *per_window = quantiles;
  *out_ns = Median(std::move(quantiles));
  return true;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::pair<std::string, std::string>, Tracer::Totals>
Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, double> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::pair<std::string, std::string>, Totals> out;
  for (const Span& s : spans_) {
    Totals& t = out[{s.klass, s.name}];
    auto it = child_ns.find(s.id);
    t.self_ns += static_cast<double>(s.end_ns - s.start_ns) -
                 (it == child_ns.end() ? 0.0 : it->second);
    t.dur_ns += static_cast<double>(s.end_ns - s.start_ns);
    t.spans += 1;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"class\": \"" << s.klass
        << "\", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"count\": " << s.count
        << "}\n";
  }
  return static_cast<bool>(out);
}

void Primary::Close() {
  if (server != nullptr) server->Stop();
  server.reset();
  wdb.reset();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    dir.clear();
  }
}

dbpl::Result<dbpl::serve::Client> Dial(uint16_t port) {
  auto client = dbpl::serve::Client::Connect("127.0.0.1", port);
  if (client.ok()) client->set_await_timeout(std::chrono::seconds(30));
  return client;
}

void Failures::Fail(const std::string& what) {
  failed.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu);
  if (first.size() < 8) first.push_back(what);
}

namespace {

class TracingFile : public dbpl::storage::VfsFile {
 public:
  TracingFile(std::unique_ptr<dbpl::storage::VfsFile> inner, Tracer* tracer,
              const std::string* klass)
      : inner_(std::move(inner)), tracer_(tracer), klass_(klass) {}
  dbpl::Result<size_t> ReadAt(uint64_t offset, void* out, size_t n) override {
    dbpl::Result<size_t> r = size_t{0};
    tracer_->Time("serve.read_chunk", 0, 0, *klass_,
                  [&] { r = inner_->ReadAt(offset, out, n); });
    return r;
  }
  dbpl::Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    return inner_->WriteAt(offset, data, n);
  }
  dbpl::Status Append(const void* data, size_t n) override {
    return inner_->Append(data, n);
  }
  dbpl::Result<uint64_t> Size() const override { return inner_->Size(); }
  dbpl::Status Sync() override { return inner_->Sync(); }

 private:
  std::unique_ptr<dbpl::storage::VfsFile> inner_;
  Tracer* const tracer_;
  const std::string* const klass_;
};

class TracingVfs : public dbpl::storage::Vfs {
 public:
  TracingVfs(dbpl::storage::Vfs* inner, Tracer* tracer,
             const std::string* klass)
      : inner_(inner), tracer_(tracer), klass_(klass) {}
  dbpl::Result<std::unique_ptr<dbpl::storage::VfsFile>> Open(
      const std::string& path, dbpl::storage::OpenMode mode) override {
    auto f = inner_->Open(path, mode);
    if (!f.ok()) return f.status();
    return std::unique_ptr<dbpl::storage::VfsFile>(
        std::make_unique<TracingFile>(std::move(*f), tracer_, klass_));
  }
  bool Exists(const std::string& path) const override {
    return inner_->Exists(path);
  }
  dbpl::Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  dbpl::Status Rename(const std::string& from, const std::string& to) override {
    return inner_->Rename(from, to);
  }
  dbpl::Status CreateDir(const std::string& path) override {
    return inner_->CreateDir(path);
  }
  dbpl::Result<std::vector<std::string>> ListDir(
      const std::string& path) const override {
    return inner_->ListDir(path);
  }

 private:
  dbpl::storage::Vfs* const inner_;
  Tracer* const tracer_;
  const std::string* const klass_;
};

}  // namespace

TracingShipper::TracingShipper(WalShipper* inner, Tracer* tracer,
                               std::string klass)
    : inner_(inner),
      tracer_(tracer),
      klass_(std::move(klass)),
      vfs_(std::make_unique<TracingVfs>(inner->vfs(), tracer, &klass_)) {}

dbpl::persist::WalShipper::ShipState TracingShipper::ship_bounds() const {
  ShipState state;
  tracer_->Time("serve.ship_bounds", 0, 0, klass_,
                [&] { state = inner_->ship_bounds(); });
  return state;
}

}  // namespace perfbench
