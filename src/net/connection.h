#ifndef S4_NET_CONNECTION_H_
#define S4_NET_CONNECTION_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/fd.h"
#include "common/stop_token.h"
#include "net/event_loop.h"
#include "net/wire.h"

namespace s4::net {

// One accepted TCP connection, owned by exactly one EventLoop and only
// ever touched on that loop's thread (service completions re-enter via
// EventLoop::Post). Responsibilities:
//
//   * frame reassembly from the byte stream, with header validation
//     (magic / version / type / size) before any payload buffering;
//   * per-request bookkeeping: the StopToken of every in-flight search,
//     cancelled en masse when the peer disconnects mid-request;
//   * a write buffer with EPOLLOUT fallback for partial writes;
//   * idle/slow-loris accounting (no byte progress while a partial
//     frame or an empty pipeline sits for too long => closed by the
//     loop's sweep).
//
// Protocol-level failures degrade by severity: a malformed payload in a
// well-framed message earns an Error frame and the connection lives on;
// a framing violation (bad magic, oversized length, unknown type,
// version mismatch) earns at most one Error frame and the connection is
// closed, because the stream can no longer be trusted.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  Connection(UniqueFd fd, EventLoop* loop);
  ~Connection();

  int fd() const { return fd_.get(); }
  bool closed() const { return closed_; }
  EventLoop* loop() const { return loop_; }

  // --- loop-thread entry points ---------------------------------------
  void OnReadable();
  void OnWritable();
  // Closes now: cancels in-flight tokens and marks the connection dead.
  // The loop removes it from the epoll set and its map.
  void Close();
  // True when the idle rules say this connection should be closed at
  // sweep time `now`.
  bool IdleExpired(std::chrono::steady_clock::time_point now) const;

  // Queues `frame` for writing (immediate attempt, EPOLLOUT fallback).
  void SendFrame(std::string frame);

  // Completion path (posted by the dispatcher): sends the response for
  // `request_id` and retires its in-flight entry.
  void CompleteRequest(uint64_t request_id, std::string frame,
                       bool is_error);

  // Dispatcher bookkeeping.
  void RegisterInflight(uint64_t request_id,
                        std::shared_ptr<StopToken> stop);
  size_t inflight() const { return inflight_.size(); }

  // Cancels the in-flight request's stop token without retiring the
  // entry (the dispatcher still completes it, typically with a
  // Cancelled error). Unknown ids are ignored: an early-stop racing the
  // completion is normal, not a protocol violation. Returns whether a
  // token was found.
  bool CancelRequest(uint64_t request_id);

 private:
  // Parses complete frames out of inbuf_; returns false when the
  // connection must close (framing violation or peer gone).
  bool DrainFrames();
  void HandleFrame(const FrameHeader& h, std::string_view payload);
  // Sends an error frame and optionally marks the connection to close
  // once the write buffer flushes.
  void SendError(uint64_t request_id, const Status& status,
                 bool close_after);
  void FlushWrites();
  void CancelInflight();

  UniqueFd fd_;
  EventLoop* loop_;
  std::string inbuf_;
  std::string outbuf_;
  size_t out_pos_ = 0;
  bool want_write_ = false;
  bool closed_ = false;
  bool close_after_flush_ = false;
  std::chrono::steady_clock::time_point last_progress_;
  std::unordered_map<uint64_t, std::shared_ptr<StopToken>> inflight_;
};

}  // namespace s4::net

#endif  // S4_NET_CONNECTION_H_
