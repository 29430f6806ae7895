#pragma once
// Co<T>: the coroutine type used for every simulated process and
// sub-operation.
//
// A Co is lazy (suspends at the start) and resumes its awaiting parent via
// symmetric transfer when it finishes, so arbitrarily deep call chains of
// simulated operations (`co_await memory.transfer(...)` inside
// `co_await tc.fetch(...)`) run without growing the real stack.
//
// Ownership: the Co object owns the coroutine frame. `co_await child`
// keeps the temporary alive for the full expression, so a finished child
// frame is destroyed as soon as its value has been extracted. Top-level
// processes transfer ownership to the Simulator via release().

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

namespace nexuspp::sim {

namespace detail {

/// Final awaiter: transfers control back to whoever co_awaited this
/// coroutine (or parks if it was a detached top-level process).
template <typename Promise>
struct FinalAwaiter {
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) const noexcept {
    if (auto cont = h.promise().continuation; cont) return cont;
    return std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Co {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation{};
    std::exception_ptr exception{};
    std::optional<T> value{};

    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::FinalAwaiter<promise_type> final_suspend() noexcept { return {}; }
    void return_value(T v) { value.emplace(std::move(v)); }
    void unhandled_exception() { exception = std::current_exception(); }
  };

  using handle_type = std::coroutine_handle<promise_type>;

  Co() noexcept = default;
  explicit Co(handle_type h) noexcept : handle_(h) {}
  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() { destroy(); }

  /// Awaiting a Co starts it and suspends the parent until it finishes.
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;  // symmetric transfer into the child
  }
  T await_resume() {
    if (handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
    return std::move(*handle_.promise().value);
  }

  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(handle_);
  }

  /// Transfers frame ownership to the caller (used by Simulator::spawn).
  [[nodiscard]] handle_type release() noexcept {
    return std::exchange(handle_, {});
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  handle_type handle_{};
};

/// void specialization: identical shape, no stored value. A top-level
/// process has no parent to rethrow into, so the Simulator that spawns it
/// points `escaped` at its pending-exception slot, which keeps the first.
template <>
class [[nodiscard]] Co<void> {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation{};
    std::exception_ptr exception{};
    std::exception_ptr* escaped = nullptr;

    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::FinalAwaiter<promise_type> final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() {
      exception = std::current_exception();
      if (escaped != nullptr && !*escaped) *escaped = exception;
    }
  };

  using handle_type = std::coroutine_handle<promise_type>;

  Co() noexcept = default;
  explicit Co(handle_type h) noexcept : handle_(h) {}
  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() { destroy(); }

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() {
    if (handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(handle_);
  }
  [[nodiscard]] handle_type release() noexcept {
    return std::exchange(handle_, {});
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  handle_type handle_{};
};

}  // namespace nexuspp::sim
