#include "core/host.hh"

#include <chrono>
#include <cstdlib>
#include <new>

// The counting hook replaces global operator new/delete; sanitizer runtimes
// install their own allocator interceptors, so the hook steps aside there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ASCOMA_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ASCOMA_ALLOC_HOOK 0
#endif
#endif
#if !defined(ASCOMA_ALLOC_HOOK)
#define ASCOMA_ALLOC_HOOK 1
#endif

namespace ascoma::core {

namespace {
thread_local std::uint64_t t_alloc_count = 0;
}  // namespace

HostNs SteadyClock::now() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return HostNs(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t).count()));
}

HostClock* default_clock() {
  static SteadyClock steady;
  return &steady;
}

std::uint64_t thread_alloc_count() { return t_alloc_count; }

bool alloc_hook_active() { return ASCOMA_ALLOC_HOOK != 0; }

#if ASCOMA_ALLOC_HOOK

namespace {

void* counted_alloc(std::size_t size) {
  ++t_alloc_count;
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    if (std::new_handler h = std::get_new_handler())
      h();
    else
      return nullptr;
  }
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  ++t_alloc_count;
  if (size == 0) size = 1;
  for (;;) {
    void* p = nullptr;
    if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                       size) == 0)
      return p;
    if (std::new_handler h = std::get_new_handler())
      h();
    else
      return nullptr;
  }
}

}  // namespace

#endif  // ASCOMA_ALLOC_HOOK

}  // namespace ascoma::core

#if ASCOMA_ALLOC_HOOK

// Replacement global allocation functions (the full C++17 set).  Everything
// funnels through malloc/posix_memalign so any operator delete may free any
// operator new's memory, exactly as the default implementations guarantee.

using ascoma::core::counted_alloc;
using ascoma::core::counted_alloc_aligned;

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // ASCOMA_ALLOC_HOOK
