#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/log.h"

namespace promptem::serve {

namespace {

MatchResponse StatusResponse(uint64_t id, ResponseStatus status,
                             std::string error) {
  MatchResponse response;
  response.id = id;
  response.status = status;
  response.error = std::move(error);
  return response;
}

}  // namespace

/// One client transport endpoint. `fd` is owned (closed on destruction)
/// in TCP mode; stdio mode borrows fd 1 and only marks it done. The
/// write mutex serializes the scorer's completions with the reader's
/// inline rejections so two responses never interleave on the wire.
struct ServeDaemon::Connection {
  Connection(int fd, bool jsonl) : fd(fd), jsonl(jsonl) {}
  ~Connection() {
    if (!jsonl && fd >= 0) ::close(fd);
  }

  const int fd;
  const bool jsonl;
  std::mutex write_mu;
  std::atomic<bool> reader_done{false};
};

ServeDaemon::ServeDaemon(MatchService* service, Config config)
    : service_(service), config_(config), queue_(config.queue) {
  PROMPTEM_CHECK(service_ != nullptr);
}

ServeDaemon::~ServeDaemon() {
  Shutdown();
  Wait();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

core::Status ServeDaemon::Start() {
  PROMPTEM_CHECK_MSG(!started_.exchange(true),
                     "ServeDaemon::Start called twice");
  if (config_.port >= 0) {
    if (::pipe(wake_pipe_) != 0) {
      return core::Status::IOError("pipe: " + std::string(strerror(errno)));
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return core::Status::IOError("socket: " + std::string(strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(config_.port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return core::Status::IOError("bind: " + std::string(strerror(errno)));
    }
    if (::listen(listen_fd_, 64) != 0) {
      return core::Status::IOError("listen: " + std::string(strerror(errno)));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return core::Status::IOError("getsockname: " +
                                   std::string(strerror(errno)));
    }
    port_ = static_cast<int>(ntohs(bound.sin_port));
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  } else {
    stdio_thread_ = std::thread([this] { StdioLoop(); });
  }
  scorer_thread_ = std::thread([this] { ScorerLoop(); });
  return core::Status::OK();
}

void ServeDaemon::AcceptLoop() {
  while (!shutting_down_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      PROMPTEM_LOG(Warn) << "accept poll failed: " << strerror(errno);
      return;
    }
    if (fds[1].revents != 0) return;  // woken by Shutdown
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      PROMPTEM_LOG(Warn) << "accept failed: " << strerror(errno);
      return;
    }
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(client, /*jsonl=*/false);
    ReapConnections(/*join_all=*/false);
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (shutting_down_.load(std::memory_order_acquire)) {
      // Raced Shutdown past its sweep: this fd would never see SHUT_RD.
      ::shutdown(client, SHUT_RDWR);
    }
    connections_.push_back(
        {std::thread([this, conn] { ConnectionLoop(conn); }), conn});
  }
}

void ServeDaemon::ConnectionLoop(std::shared_ptr<Connection> conn) {
  while (true) {
    std::string payload;
    const core::Status status = ReadFrame(conn->fd, &payload);
    if (status.ok()) {
      HandlePayload(conn, payload);
      continue;
    }
    if (status.code() == core::StatusCode::kInvalidArgument) {
      // Framing violation (oversized or truncated length/payload): the
      // byte stream is out of sync, so answer once and hang up. The
      // explicit SHUT_WR delivers the EOF now — the fd itself lives
      // until the connection is reaped, which could be much later.
      WriteResponse(conn, StatusResponse(0, ResponseStatus::kBadRequest,
                                         status.message()));
      ::shutdown(conn->fd, SHUT_WR);
    }
    break;  // clean EOF, framing error, or transport error
  }
  conn->reader_done.store(true, std::memory_order_release);
}

void ServeDaemon::StdioLoop() {
  auto conn = std::make_shared<Connection>(STDOUT_FILENO, /*jsonl=*/true);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    connections_.push_back({std::thread(), conn});
  }
  // Poll so a Shutdown (signal) interrupts an idle stdin wait; a pipe
  // cannot be shutdown(2) the way a socket can.
  std::string buffer;
  char chunk[4096];
  bool eof = false;
  while (!eof && !shutting_down_.load(std::memory_order_acquire)) {
    pollfd pfd{STDIN_FILENO, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      eof = true;
    } else {
      buffer.append(chunk, static_cast<size_t>(n));
    }
    size_t start = 0;
    for (size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      if (nl > start) {
        HandlePayload(conn, std::string_view(buffer).substr(start, nl - start));
      }
      start = nl + 1;
    }
    buffer.erase(0, start);
  }
  if (eof && !buffer.empty()) HandlePayload(conn, buffer);
  conn->reader_done.store(true, std::memory_order_release);
}

void ServeDaemon::HandlePayload(const std::shared_ptr<Connection>& conn,
                                std::string_view payload) {
  core::Result<MatchRequest> parsed = ParseMatchRequest(payload);
  if (!parsed.ok()) {
    WriteResponse(conn, StatusResponse(0, ResponseStatus::kBadRequest,
                                       parsed.status().message()));
    return;
  }
  MatchRequest request = std::move(parsed).value();
  if (request.op == RequestOp::kInfo) {
    // Metadata is immutable after TrainAll — answered inline, never
    // queued behind scoring work.
    MatchResponse response;
    response.id = request.id;
    response.info = service_->InfoJson();
    WriteResponse(conn, response);
    return;
  }
  const uint64_t id = request.id;
  PendingRequest pending;
  pending.enqueue_time = std::chrono::steady_clock::now();
  if (request.deadline_ms > 0) {
    pending.has_deadline = true;
    pending.deadline =
        pending.enqueue_time + std::chrono::milliseconds(request.deadline_ms);
  }
  pending.request = std::move(request);
  pending.complete = [conn](MatchResponse response) {
    WriteResponse(conn, response);
  };
  if (!queue_.TryEnqueue(std::move(pending))) {
    const bool closed = queue_.closed();
    WriteResponse(
        conn, StatusResponse(id,
                             closed ? ResponseStatus::kShuttingDown
                                    : ResponseStatus::kOverloaded,
                             closed ? "daemon draining" : "queue full"));
  }
}

void ServeDaemon::WriteResponse(const std::shared_ptr<Connection>& conn,
                                const MatchResponse& response) {
  const std::string payload = SerializeResponse(response);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  bool ok;
  if (conn->jsonl) {
    const std::string line = payload + "\n";
    ok = WriteFull(conn->fd, line.data(), line.size());
  } else {
    ok = WriteFrame(conn->fd, payload).ok();
  }
  // A client that vanished mid-response is its problem, not ours:
  // SIGPIPE is ignored process-wide, the failed write surfaces here,
  // and the daemon keeps serving everyone else.
  if (!ok) {
    PROMPTEM_LOG(Warn) << "dropped response id=" << response.id
                       << " (client gone)";
  }
}

void ServeDaemon::ScorerLoop() {
  while (true) {
    std::vector<PendingRequest> batch = queue_.DequeueBatch();
    if (batch.empty()) return;  // closed and drained
    service_->HandleBatch(std::move(batch));
  }
}

void ServeDaemon::ReapConnections(bool join_all) {
  std::vector<ConnEntry> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (size_t i = 0; i < connections_.size();) {
      const bool done =
          join_all ||
          connections_[i].conn->reader_done.load(std::memory_order_acquire);
      if (done) {
        finished.push_back(std::move(connections_[i]));
        connections_.erase(connections_.begin() +
                           static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  for (ConnEntry& entry : finished) {
    if (entry.thread.joinable()) entry.thread.join();
  }
}

void ServeDaemon::Shutdown() {
  bool expected = false;
  if (!shutting_down_.compare_exchange_strong(expected, true)) return;
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  // Half-close every live client: readers wake with EOF and exit, while
  // the write side stays open so the scorer can flush in-flight
  // responses during the drain.
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (ConnEntry& entry : connections_) {
    if (!entry.conn->jsonl) ::shutdown(entry.conn->fd, SHUT_RD);
  }
  queue_.Close();
}

void ServeDaemon::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  if (stdio_thread_.joinable()) stdio_thread_.join();
  // All producers have stopped; close admission (idempotent — Shutdown
  // may have done it) so the scorer exits once the backlog drains. The
  // stdio EOF path reaches here with the queue still open.
  queue_.Close();
  if (scorer_thread_.joinable()) scorer_thread_.join();
  ReapConnections(/*join_all=*/true);
}

}  // namespace promptem::serve
