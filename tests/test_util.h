#ifndef S4_TESTS_TEST_UTIL_H_
#define S4_TESTS_TEST_UTIL_H_

#include <dirent.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/fd.h"
#include "datagen/tpch_mini.h"
#include "index/index_set.h"
#include "net/socket_util.h"
#include "net/wire.h"
#include "query/pj_query.h"
#include "query/spreadsheet.h"
#include "schema/schema_graph.h"
#include "score/score_model.h"

namespace s4::testing {

// Builds the Figure-1 database once per process.
inline const Database& TpchDb() {
  static const Database& db = *new Database([] {
    auto d = datagen::MakeTpchMini();
    if (!d.ok()) abort();
    return std::move(d).value();
  }());
  return db;
}

inline const IndexSet& TpchIndex() {
  static const IndexSet& index = *[] {
    auto i = IndexSet::Build(TpchDb());
    if (!i.ok()) abort();
    return i->release();
  }();
  return index;
}

inline const SchemaGraph& TpchGraph() {
  static const SchemaGraph& g = *new SchemaGraph(TpchDb());
  return g;
}

// The example spreadsheet of Figure 2(a).
inline ExampleSpreadsheet Fig2aSheet(const IndexSet& index) {
  auto sheet = ExampleSpreadsheet::FromCells(
      {
          {"Rick", "USA", "Xbox"},
          {"Julie", "", "iPhone"},
          {"Kevin", "Canada", ""},
      },
      index.tokenizer());
  if (!sheet.ok()) abort();
  return std::move(sheet).value();
}

// Reference implementation of the row-containment components
// score(t | Q) by explicit enumeration of all join-output rows —
// exponential but exact; used to validate the hash-join evaluator.
// Supports the base scoring model (no idf / exact-match bonus).
class BruteForceEvaluator {
 public:
  BruteForceEvaluator(const IndexSet& index, const ExampleSpreadsheet& sheet)
      : index_(&index), sheet_(&sheet) {}

  std::vector<double> RowScores(const PJQuery& q) {
    const JoinTree& tree = q.tree();
    std::vector<double> best(sheet_->NumRows(), 0.0);
    std::vector<int64_t> rows(tree.size(), -1);
    Assign(q, tree, 0, &rows, &best);
    return best;
  }

 private:
  // Distinct terms of the example cell found in the database cell.
  double CellSim(const std::string& cell_raw, TableId table, int64_t row,
                 int32_t col) const {
    const Table& t = index_->db().table(table);
    if (t.IsNull(row, col)) return 0.0;
    std::vector<std::string> db_tokens =
        index_->tokenizer().Tokenize(t.GetText(row, col));
    std::unordered_set<std::string> db_set(db_tokens.begin(),
                                           db_tokens.end());
    double sim = 0.0;
    for (const std::string& term :
         index_->tokenizer().TokenizeUnique(cell_raw)) {
      if (db_set.count(term) > 0) sim += 1.0;
    }
    return sim;
  }

  void Score(const PJQuery& q, const std::vector<int64_t>& rows,
             std::vector<double>* best) const {
    for (int32_t t = 0; t < sheet_->NumRows(); ++t) {
      double total = 0.0;
      for (const ProjectionBinding& b : q.bindings()) {
        const auto& cell = sheet_->cell(t, b.es_column);
        if (cell.empty()) continue;
        total += CellSim(cell.raw, q.tree().node(b.node).table,
                         rows[b.node], b.column);
      }
      (*best)[t] = std::max((*best)[t], total);
    }
  }

  void Assign(const PJQuery& q, const JoinTree& tree, TreeNodeId v,
              std::vector<int64_t>* rows, std::vector<double>* best) {
    const Database& db = index_->db();
    const TableId table = tree.node(v).table;
    auto descend = [&](int64_t row) {
      (*rows)[v] = row;
      // Verify the join predicate with the parent on the base tables'
      // values, independently of the snapshot's FK row-id columns.
      if (v != tree.root()) {
        const JoinTree::Node& n = tree.node(v);
        const int64_t parent_row = (*rows)[n.parent];
        const ForeignKeyDef& def = db.foreign_keys()[n.edge_to_parent];
        const Table& pt = db.table(tree.node(n.parent).table);
        const Table& vt = db.table(table);
        const Table& src = n.parent_holds_fk ? pt : vt;
        const Table& dst = n.parent_holds_fk ? vt : pt;
        const int64_t src_row = n.parent_holds_fk ? parent_row : row;
        const int64_t dst_row = n.parent_holds_fk ? row : parent_row;
        if (src.IsNull(src_row, def.src_column)) return;
        if (src.GetInt(src_row, def.src_column) !=
            dst.GetInt(dst_row, dst.primary_key_column())) {
          return;
        }
      }
      if (v + 1 == tree.size()) {
        Score(q, *rows, best);
      } else {
        Assign(q, tree, v + 1, rows, best);
      }
    };
    for (int64_t r = 0; r < db.table(table).NumRows(); ++r) descend(r);
  }

  const IndexSet* index_;
  const ExampleSpreadsheet* sheet_;
};

// --- fault-injection / polling helpers (net + dist suites) -------------

// Open descriptors of this process, excluding the enumeration itself.
// Leak checks snapshot before and compare after teardown.
inline int CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int n = 0;
  while (readdir(dir) != nullptr) ++n;
  closedir(dir);
  return n - 3;  // ".", "..", and the dirfd itself
}

// Waits until `pred` holds or ~2 s pass (loop-thread effects like
// connection-close bookkeeping are asynchronous).
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// Frame-aware TCP proxy in front of a real shard server, injecting one
// of the classic partial-failure modes into the first
// `fail_connections` connections (later ones relay transparently, so a
// coordinator retry lands on a clean path):
//
//   kDropMidRequest  read part of the request, then close abruptly —
//                    the coordinator sees a transport error;
//   kBlackhole       swallow the request and never answer — the
//                    coordinator's deadline is the only way out;
//   kErrorOnNthFrame relay the exchange but replace the Nth
//                    backend frame with a retryable ResourceExhausted
//                    error and cut the connection — admission
//                    backpressure at stream time.
//
// One handler thread per connection; Stop() (also the destructor)
// shuts every socket down and joins.
class FaultyShard {
 public:
  enum class Fault { kNone, kDropMidRequest, kBlackhole, kErrorOnNthFrame };
  struct Options {
    Fault fault = Fault::kNone;
    int fail_connections = 1;  // connections the fault applies to
    int error_frame = 1;       // 1-based backend frame to replace
  };

  FaultyShard(uint16_t backend_port, Options opts)
      : backend_port_(backend_port), opts_(opts) {
    auto listener = net::Listen("127.0.0.1", 0);
    if (!listener.ok()) abort();
    listen_fd_ = std::move(*listener);
    auto port = net::LocalPort(listen_fd_.get());
    if (!port.ok()) abort();
    port_ = *port;
    acceptor_ = std::thread([this] { AcceptLoop(); });
  }

  ~FaultyShard() { Stop(); }

  uint16_t port() const { return port_; }
  int connections_seen() const {
    return connections_.load(std::memory_order_relaxed);
  }

  void Stop() {
    if (stop_.exchange(true)) return;
    if (acceptor_.joinable()) acceptor_.join();
    {
      // Unblock handler threads stuck in a read.
      std::lock_guard<std::mutex> lock(mu_);
      for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& t : handlers_) t.join();
    handlers_.clear();
  }

 private:
  void Track(int fd) {
    std::lock_guard<std::mutex> lock(mu_);
    live_fds_.push_back(fd);
  }
  void Untrack(int fd) {
    std::lock_guard<std::mutex> lock(mu_);
    live_fds_.erase(std::remove(live_fds_.begin(), live_fds_.end(), fd),
                    live_fds_.end());
  }

  void AcceptLoop() {
    while (!stop_.load(std::memory_order_acquire)) {
      pollfd p{listen_fd_.get(), POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      const int raw = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (raw < 0) continue;
      const int index =
          connections_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu_);
      handlers_.emplace_back(
          [this, raw, index] { Handle(UniqueFd(raw), index); });
    }
  }

  // Reads one whole frame (header + payload). False on any failure.
  static bool ReadWholeFrame(int fd, std::string* frame) {
    frame->resize(net::kHeaderBytes);
    if (!net::RecvAll(fd, frame->data(), net::kHeaderBytes, 10.0).ok()) {
      return false;
    }
    net::FrameHeader h;
    if (!net::DecodeFrameHeader(*frame, &h).ok()) return false;
    if (h.payload_len > net::kDefaultMaxFrameBytes) return false;
    const size_t total = net::kHeaderBytes + h.payload_len;
    frame->resize(total);
    return h.payload_len == 0 ||
           net::RecvAll(fd, frame->data() + net::kHeaderBytes, h.payload_len,
                        10.0)
               .ok();
  }

  void Handle(UniqueFd client, int index) {
    Track(client.get());
    const Fault fault =
        index < opts_.fail_connections ? opts_.fault : Fault::kNone;

    if (fault == Fault::kDropMidRequest) {
      // Read half a header, then vanish.
      char junk[net::kHeaderBytes / 2];
      (void)net::RecvAll(client.get(), junk, sizeof(junk), 10.0);
      Untrack(client.get());
      return;
    }

    std::string request;
    if (!ReadWholeFrame(client.get(), &request)) {
      Untrack(client.get());
      return;
    }

    if (fault == Fault::kBlackhole) {
      // Hold the connection open, answering nothing, until the peer
      // gives up (its deadline) or the proxy is stopped.
      char scratch[256];
      while (!stop_.load(std::memory_order_acquire)) {
        pollfd p{client.get(), POLLIN, 0};
        if (::poll(&p, 1, 50) <= 0) continue;
        const ssize_t n = ::recv(client.get(), scratch, sizeof(scratch), 0);
        if (n <= 0) break;  // peer closed / errored
      }
      Untrack(client.get());
      return;
    }

    auto backend =
        net::ConnectWithTimeout("127.0.0.1", backend_port_, 5.0);
    if (!backend.ok()) {
      Untrack(client.get());
      return;
    }
    Track(backend->get());
    if (!net::SendAll(backend->get(), request.data(), request.size(), 10.0)
             .ok()) {
      Untrack(backend->get());
      Untrack(client.get());
      return;
    }

    // Blind pump client -> backend (stop frames must keep flowing).
    std::thread pump([this, cfd = client.get(), bfd = backend->get()] {
      char buf[4096];
      while (!stop_.load(std::memory_order_acquire)) {
        pollfd p{cfd, POLLIN, 0};
        if (::poll(&p, 1, 50) <= 0) continue;
        const ssize_t n = ::recv(cfd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        if (!net::SendAll(bfd, buf, static_cast<size_t>(n), 5.0).ok()) break;
      }
    });

    // Frame-aware relay backend -> client with optional injection.
    int frame_index = 0;
    std::string frame;
    while (ReadWholeFrame(backend->get(), &frame)) {
      ++frame_index;
      if (fault == Fault::kErrorOnNthFrame &&
          frame_index == opts_.error_frame) {
        net::FrameHeader h;
        (void)net::DecodeFrameHeader(frame, &h);
        const std::string error = net::EncodeErrorFrame(
            Status::ResourceExhausted("injected shard backpressure"),
            h.request_id);
        (void)net::SendAll(client.get(), error.data(), error.size(), 5.0);
        break;  // cut both sides: the retry must use a new connection
      }
      if (!net::SendAll(client.get(), frame.data(), frame.size(), 10.0)
               .ok()) {
        break;
      }
    }
    // Closing the sockets unblocks the pump; shutdown first so a
    // blocked recv returns.
    ::shutdown(client.get(), SHUT_RDWR);
    ::shutdown(backend->get(), SHUT_RDWR);
    pump.join();
    Untrack(backend->get());
    Untrack(client.get());
  }

  const uint16_t backend_port_;
  const Options opts_;
  UniqueFd listen_fd_;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stop_{false};
  std::atomic<int> connections_{0};
  std::mutex mu_;
  std::vector<std::thread> handlers_;
  std::vector<int> live_fds_;
};

}  // namespace s4::testing

#endif  // S4_TESTS_TEST_UTIL_H_
