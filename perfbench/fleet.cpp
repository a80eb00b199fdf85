#include "fleet.hpp"

#include <sys/resource.h>

#include <atomic>
#include <filesystem>
#include <latch>
#include <span>
#include <stdexcept>
#include <thread>

#include "service/plan_store.hpp"
#include "support/binio.hpp"

namespace fleetbench {

namespace net = earthred::net;
namespace service = earthred::service;
namespace shard = earthred::shard;

namespace {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Benchmark-client stream tap: records when each request frame has been
/// fully written.
class ClientTap final : public net::Stream {
 public:
  ClientTap(std::unique_ptr<net::Stream> inner, TimePoint* written)
      : inner_(std::move(inner)), written_(written) {}
  net::IoResult read_some(void* buf, std::size_t n, int timeout_ms) override {
    return inner_->read_some(buf, n, timeout_ms);
  }
  net::IoResult write_all(const void* buf, std::size_t n,
                          int timeout_ms) override {
    const net::IoResult r = inner_->write_all(buf, n, timeout_ms);
    *written_ = Clock::now();
    return r;
  }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<net::Stream> inner_;
  TimePoint* written_;
};

/// Router-to-shard stream tap: timestamps each forwarded Submit frame as
/// its write begins and each Result frame as its last byte is read, and
/// keys both by the job's `name=`. The router writes a frame with one
/// write_all call; replies are reassembled from read_some chunks.
class RouterTap final : public net::Stream {
 public:
  RouterTap(std::unique_ptr<net::Stream> inner, TraceSink* sink,
            std::uint32_t shard)
      : inner_(std::move(inner)), sink_(sink), shard_(shard) {}

  net::IoResult write_all(const void* buf, std::size_t n,
                          int timeout_ms) override {
    const TimePoint t = Clock::now();
    const std::span<const std::byte> bytes(static_cast<const std::byte*>(buf),
                                           n);
    if (n >= net::kHeaderBytes) {
      const net::HeaderParse h = net::parse_header(
          bytes.first(net::kHeaderBytes), net::kDefaultMaxPayload);
      if (h.ok() && h.type == net::FrameType::Submit &&
          n >= net::kHeaderBytes + h.payload_len) {
        earthred::support::ByteReader r(
            bytes.subspan(net::kHeaderBytes, h.payload_len));
        const std::string line = net::get_string(r);
        if (!r.fail()) sink_->forward_written(job_name(line), shard_, t);
      }
    }
    return inner_->write_all(buf, n, timeout_ms);
  }

  net::IoResult read_some(void* buf, std::size_t n, int timeout_ms) override {
    const net::IoResult r = inner_->read_some(buf, n, timeout_ms);
    if (!r.ok() || r.bytes == 0) return r;
    const TimePoint t = Clock::now();
    const auto* p = static_cast<const std::byte*>(buf);
    pending_.insert(pending_.end(), p, p + r.bytes);
    while (pending_.size() >= net::kHeaderBytes) {
      const net::HeaderParse h = net::parse_header(
          std::span<const std::byte>(pending_).first(net::kHeaderBytes),
          net::kDefaultMaxPayload);
      if (!h.ok()) {  // the client will see the same damage; stop tracing
        pending_.clear();
        break;
      }
      const std::size_t frame = net::kHeaderBytes + h.payload_len;
      if (pending_.size() < frame) break;
      net::ResultBody body;
      if (h.type == net::FrameType::Result &&
          net::decode_result(std::span<const std::byte>(pending_).subspan(
                                 net::kHeaderBytes, h.payload_len),
                             &body))
        sink_->forward_replied(body.name, t);
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(frame));
    }
    return r;
  }

  void close() override { inner_->close(); }

 private:
  std::unique_ptr<net::Stream> inner_;
  TraceSink* sink_;
  std::uint32_t shard_;
  std::vector<std::byte> pending_;
};

}  // namespace

std::string job_name(std::string_view line) {
  for (std::size_t pos = 0; pos < line.size();) {
    const std::size_t end = std::min(line.find(' ', pos), line.size());
    const std::string_view tok = line.substr(pos, end - pos);
    if (tok.substr(0, 5) == "name=") return std::string(tok.substr(5));
    pos = end + 1;
  }
  return {};
}

void TraceSink::forward_written(const std::string& name, std::uint32_t shard,
                                TimePoint t) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Forward& f = forwards_[name];
  f.written = t;
  f.shard = shard;
}

void TraceSink::forward_replied(const std::string& name, TimePoint t) {
  const std::lock_guard<std::mutex> lock(mutex_);
  forwards_[name].replied = t;
}

void TraceSink::handled(const std::string& name, std::uint32_t shard,
                        TimePoint start, TimePoint end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  handlers_[name] = {start, end, shard};
}

std::optional<TraceSink::Forward> TraceSink::forward(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = forwards_.find(name);
  if (it == forwards_.end()) return std::nullopt;
  return it->second;
}

std::optional<TraceSink::Handler> TraceSink::handler(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = handlers_.find(name);
  if (it == handlers_.end()) return std::nullopt;
  return it->second;
}

Fleet::Fleet(const Config& cfg, TraceSink* trace)
    : store_root_(cfg.store_root) {
  std::vector<shard::ShardEndpoint> endpoints;
  for (std::uint32_t i = 0; i < cfg.shards; ++i) {
    auto s = std::make_unique<Shard>();
    service::JobScheduler::Config sc;
    sc.workers = 1;
    sc.queue_capacity = 256;
    sc.cache.byte_budget = cfg.cache_budget;
    if (!store_root_.empty())
      sc.cache.store = std::make_shared<service::PlanStore>(
          store_root_ + "/shard-" + std::to_string(i));
    s->sched = std::make_unique<service::JobScheduler>(sc);
    service::JobLimits limits;
    limits.allow_file_io = false;  // networked submissions
    s->builder = std::make_shared<service::JobBuilder>(limits);
    service::ServeLoop::SubmitHandler handler;
    if (trace) {
      handler = [b = s->builder, trace, i](std::string_view line) {
        const TimePoint t0 = Clock::now();
        service::JobBuild built = b->build(line, 0);
        trace->handled(job_name(line), i, t0, Clock::now());
        return built;
      };
    } else {
      handler = [b = s->builder](std::string_view line) {
        return b->build(line, 0);
      };
    }
    s->loop = std::make_unique<service::ServeLoop>(*s->sched,
                                                   std::move(handler),
                                                   service::ServeConfig{});
    std::string error;
    if (!s->loop->start(&error))
      throw std::runtime_error("shard start failed: " + error);
    endpoints.push_back(
        {"shard-" + std::to_string(i), "127.0.0.1", s->loop->port()});
    shards_.push_back(std::move(s));
  }
  shard::RouterConfig rc;
  if (trace)
    rc.pool.wrap_stream = [trace](std::unique_ptr<net::Stream> s,
                                  std::uint32_t index)
        -> std::unique_ptr<net::Stream> {
      return std::make_unique<RouterTap>(std::move(s), trace, index);
    };
  router_ = std::make_unique<shard::ShardRouter>(
      shard::ShardMap(std::move(endpoints)), rc);
  std::string error;
  if (!router_->start(&error))
    throw std::runtime_error("router start failed: " + error);
}

Fleet::~Fleet() {
  if (router_) {
    router_->drain_fleet();
    router_->wait();
  }
  for (auto& s : shards_) {
    s->loop->request_drain();
    s->loop->wait();
    s->sched->drain();
  }
  router_.reset();
  shards_.clear();
  if (!store_root_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(store_root_, ec);
  }
}

FleetCounters Fleet::counters() const {
  FleetCounters c;
  for (const auto& s : shards_) {
    c.serve.push_back(s->loop->stats());
    c.service.push_back(s->sched->stats());
  }
  c.router = router_->stats();
  c.pool = router_->pool().snapshot();
  return c;
}

WindowResult drive(std::uint16_t port, const std::vector<std::string>& lines,
                   std::uint32_t clients, double cap_seconds, bool traced) {
  WindowResult out;
  out.jobs.resize(lines.size());
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> cut{false};
  std::latch connected(clients);
  std::latch go(1);
  TimePoint opened{};  // written before `go` opens, read after
  std::vector<net::ClientStats> stats(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      TimePoint written{};
      net::ClientConfig cc;
      cc.port = port;
      cc.jitter_seed = 0x6a11ULL + c;
      if (traced)
        cc.wrap_stream = [&written](std::unique_ptr<net::Stream> s)
            -> std::unique_ptr<net::Stream> {
          return std::make_unique<ClientTap>(std::move(s), &written);
        };
      net::Client client(cc);
      client.ping();  // connect before the window opens
      connected.count_down();
      go.wait();
      while (true) {
        if (seconds_between(opened, Clock::now()) > cap_seconds) {
          cut.store(true);
          break;
        }
        const std::size_t i = cursor.fetch_add(1);
        if (i >= lines.size()) break;
        JobRecord& rec = out.jobs[i];
        rec.attempted = true;
        rec.name = job_name(lines[i]);
        rec.submitted = Clock::now();
        const net::Client::Reply reply = client.submit(lines[i]);
        rec.decoded = Clock::now();
        rec.written = written;
        rec.code = reply.code;
        rec.result = reply.result;
      }
      stats[c] = client.stats();
    });
  }
  connected.wait();
  opened = Clock::now();
  const double cpu0 = process_cpu_seconds();
  go.count_down();
  for (std::thread& t : threads) t.join();
  out.wall_seconds = seconds_between(opened, Clock::now());
  out.cpu_seconds = process_cpu_seconds() - cpu0;
  out.cut = cut.load();
  for (const net::ClientStats& s : stats) {
    out.clients.retries += s.retries;
    out.clients.reconnects += s.reconnects;
  }
  return out;
}

}  // namespace fleetbench
