#pragma once

// Workload abstraction: a workload describes the shared-memory footprint of
// one program (how many pages, who is home to what) and produces, for each
// process, the deterministic operation stream the simulated processor
// executes.  The same streams drive every architecture under test — the
// paper's controlled-variable methodology.
//
// The six paper workloads are synthetic generators shaped by each program's
// published sharing signature (see DESIGN.md section 2): partition sizes,
// remote-working-set size, spatial locality, phase structure and hot-page
// fraction reproduce the SPLASH-2 / Split-C behaviours the paper's analysis
// attributes its results to.

#include <array>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace ascoma::workload {

/// A lazily-consumed operation stream (kEnd-terminated; kEnd forever after).
/// next() is an inline read of the window [cur_, end_) of ops the stream
/// has ready; only an empty window pays for the virtual refill().
class OpStream {
 public:
  virtual ~OpStream() = default;

  Op next() {
    if (cur_ == end_) [[unlikely]] {
      refill();
      if (cur_ == end_) return Op{};
    }
    return *cur_++;
  }

 protected:
  OpStream() = default;
  OpStream(const OpStream&) = default;
  OpStream& operator=(const OpStream&) = default;

  /// Called when the window is empty: points it at the next ops with
  /// set_window(), or leaves it empty when the stream has ended.
  virtual void refill() = 0;

  void set_window(const Op* begin, const Op* end) {
    cur_ = begin;
    end_ = end;
  }

 private:
  const Op* cur_ = nullptr;
  const Op* end_ = nullptr;
};

/// The coroutine return type of every op generator, and the OpStream that
/// reads it.  A generator `co_yield`s one op at a time; it runs at most
/// kBatch ops ahead of the reader, so a stream holds O(1) memory however
/// long the run is.  Consecutive kCompute yields (and consecutive kPrivate
/// yields) merge into one op and zero-length ones are dropped, so a
/// generator yields each burst where it occurs without looking at its
/// neighbours.
///
/// Take coroutine parameters by value: a reference parameter dangles after
/// the first suspension.  A member coroutine keeps `this`, so its workload
/// must outlive the stream.
class GeneratorStream final : public OpStream {
 public:
  static constexpr std::uint32_t kBatch = 128;

  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    std::array<Op, kBatch> batch;  ///< ops yielded since the last refill
    std::uint32_t size = 0;
    std::exception_ptr error;

    /// Adds `op` to the batch; false when it needs a slot and none is left.
    bool append(Op op) noexcept {
      if (op.kind == OpKind::kCompute || op.kind == OpKind::kPrivate) {
        if (op.arg == 0) return true;
        if (size > 0 && batch[size - 1].kind == op.kind) {
          batch[size - 1].arg += op.arg;
          return true;
        }
      }
      if (size == kBatch) return false;
      batch[size++] = op;
      return true;
    }

    /// Suspends the generator only when `op` finds the batch full; the
    /// reader empties the batch and `op` opens the next one.
    struct Yield {
      promise_type& p;
      Op op;
      bool appended = false;
      bool await_ready() noexcept { return appended = p.append(op); }
      void await_suspend(Handle) noexcept {}
      void await_resume() noexcept {
        if (!appended) p.batch[p.size++] = op;
      }
    };

    GeneratorStream get_return_object() {
      return GeneratorStream{Handle::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    Yield yield_value(Op op) noexcept { return Yield{*this, op}; }
    void return_void() noexcept {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  /// The window points into the coroutine frame, which the move hands over.
  GeneratorStream(GeneratorStream&& other) noexcept
      : OpStream(other), h_(std::exchange(other.h_, {})) {}
  GeneratorStream& operator=(GeneratorStream&&) = delete;
  ~GeneratorStream() override {
    if (h_) h_.destroy();
  }

 private:
  explicit GeneratorStream(Handle h) : h_(h) {}

  /// Resumes the generator for its next batch and reads the batch.
  void refill() override;

  Handle h_;
};

/// Makes the ops a generator yields: shared addresses from (page, line
/// index) over one page/line geometry, and sequential barrier ids.
class OpFactory {
 public:
  /// Both sizes must be powers of two (as MachineConfig requires).
  OpFactory(ByteCount page_bytes, ByteCount line_bytes);

  static Op compute(Cycle cycles) { return {OpKind::kCompute, cycles.value()}; }
  static Op private_ops(std::uint64_t count) {
    return {OpKind::kPrivate, count};
  }
  Op load(VPageId page, std::uint64_t line_idx) const {
    return {OpKind::kLoad, addr(page, line_idx).value()};
  }
  Op store(VPageId page, std::uint64_t line_idx) const {
    return {OpKind::kStore, addr(page, line_idx).value()};
  }
  Op barrier() { return {OpKind::kBarrier, barrier_seq_++}; }
  static Op lock(std::uint64_t id) { return {OpKind::kLock, id}; }
  static Op unlock(std::uint64_t id) { return {OpKind::kUnlock, id}; }

  std::uint64_t lines_per_page() const { return line_mask_ + 1; }

 private:
  /// Line `line_idx` modulo lines_per_page() of `page`.
  Addr addr(VPageId page, std::uint64_t line_idx) const {
    return Addr{page.value() * page_bytes_.value() +
                (line_idx & line_mask_) * line_bytes_.value()};
  }

  ByteCount page_bytes_;
  ByteCount line_bytes_;
  std::uint64_t line_mask_;
  std::uint64_t barrier_seq_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual std::uint32_t nodes() const = 0;
  /// Number of processes (= processors).  Default: one per node; SMP-node
  /// workloads return nodes() * procs_per_node.  Must be a multiple of
  /// nodes(); process p runs on node p / (processes()/nodes()).
  virtual std::uint32_t processes() const { return nodes(); }
  /// Total shared pages across the machine.
  virtual std::uint64_t total_pages() const = 0;
  /// Home node of a page.  Default: contiguous equal partitions (the layout
  /// the paper's capped first-touch produces for these SPMD programs).
  virtual NodeId home_of(VPageId page) const;
  /// Process `proc`'s operation stream (deterministic in `seed`).  The
  /// stream may refer to the workload: keep the workload alive while the
  /// stream is read.
  virtual std::unique_ptr<OpStream> stream(std::uint32_t proc,
                                           std::uint64_t seed) const = 0;

  /// Granularities the generated addresses assume; the machine validates its
  /// MachineConfig against these.
  virtual ByteCount page_bytes() const { return ByteCount{4096}; }
  virtual ByteCount line_bytes() const { return ByteCount{32}; }

  std::uint64_t pages_per_node() const { return total_pages() / nodes(); }
};

/// Factory over the six paper workloads: "barnes", "em3d", "fft", "lu",
/// "ocean", "radix".  `scale` multiplies iteration counts (1.0 = default).
/// Returns nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        double scale = 1.0);

/// Names accepted by make_workload, in the paper's order.
const std::vector<std::string>& workload_names();

}  // namespace ascoma::workload
