// One description of archived state, three uses.
//
// Every stateful struct describes its archived state exactly once, in
//
//   template <class V, class S> static void visit(V& v, S& s);
//
// which names each field in archive order. S is `const T` when saving or
// digesting and `T` when loading (T itself, or the plain struct that holds
// T's archived members). The adapter V decides what a visit does:
//
//   Writer    appends each field to an ArchiveWriter in its wire encoding;
//   Reader    reads each field from an ArchiveReader into a fresh value;
//   Digester  mixes each field, widened to 64 bits, into a Digest.
//
// Field order is archive order, and the state digest is the same walk as
// save, so a field cannot be saved without being digested, or the
// reverse. Loads stay parse-then-commit: the Reader fills a fresh copy of
// the archived state, and the object commits it only once every section
// has parsed, so a rejected archive leaves the object untouched.
//
// Wire encoding follows the field's C++ type: bool, 8-bit integers and
// enums with an 8-bit underlying type are one byte; unsigned 16/32/64-bit
// integers are u16/u32/u64; int64 is i64; double is its IEEE-754 bits. An
// `int` has no implied width, so such fields name theirs with as<W>(v, f).
// A field of class type is visited through its own static visit().
//
// The container walks below are the only places that lay out a sequence,
// a map or a sparse table; each works under all three adapters.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "snapshot/archive.h"
#include "snapshot/digest.h"

namespace r2c2::snapshot {

namespace detail {

// The wire type of a scalar field of type T.
template <class T>
constexpr auto wire_of() {
  if constexpr (std::is_enum_v<T>) {
    return wire_of<std::underlying_type_t<T>>();
  } else if constexpr (std::is_same_v<T, double>) {
    return double{};
  } else if constexpr (std::is_same_v<T, bool> || sizeof(T) == 1) {
    return std::uint8_t{};
  } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 2) {
    return std::uint16_t{};
  } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 4) {
    return std::uint32_t{};
  } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 8) {
    return std::uint64_t{};
  } else {
    static_assert(std::is_signed_v<T> && sizeof(T) == 8,
                  "no implied wire width: visit this field with as<W>(v, field)");
    return std::int64_t{};
  }
}

template <class T>
using wire_t = decltype(wire_of<T>());

}  // namespace detail

class Writer {
 public:
  static constexpr bool kLoading = false;

  explicit Writer(ArchiveWriter& w) : w_(w) {}
  ArchiveWriter& archive() { return w_; }

  template <class T>
  void operator()(const T& x) {
    if constexpr (std::is_class_v<T>) {
      T::visit(*this, x);
    } else {
      using W = detail::wire_t<T>;
      const W w = static_cast<W>(x);
      if constexpr (std::is_same_v<W, std::uint8_t>) w_.u8(w);
      else if constexpr (std::is_same_v<W, std::uint16_t>) w_.u16(w);
      else if constexpr (std::is_same_v<W, std::uint32_t>) w_.u32(w);
      else if constexpr (std::is_same_v<W, std::uint64_t>) w_.u64(w);
      else if constexpr (std::is_same_v<W, std::int64_t>) w_.i64(w);
      else w_.f64(w);
    }
  }
  template <std::size_t N>
  void bytes(const std::array<std::uint8_t, N>& b) {
    w_.bytes(b);
  }
  template <class Fn>
  void section(std::string_view tag, Fn&& fn) {
    w_.begin_section(tag);
    fn();
    w_.end_section();
  }
  void require(bool, const char*) {}

 private:
  ArchiveWriter& w_;
};

class Reader {
 public:
  static constexpr bool kLoading = true;

  explicit Reader(ArchiveReader& r) : r_(r) {}

  template <class T>
  void operator()(T& x) {
    if constexpr (std::is_class_v<T>) {
      T::visit(*this, x);
    } else {
      using W = detail::wire_t<T>;
      W w;
      if constexpr (std::is_same_v<W, std::uint8_t>) w = r_.u8();
      else if constexpr (std::is_same_v<W, std::uint16_t>) w = r_.u16();
      else if constexpr (std::is_same_v<W, std::uint32_t>) w = r_.u32();
      else if constexpr (std::is_same_v<W, std::uint64_t>) w = r_.u64();
      else if constexpr (std::is_same_v<W, std::int64_t>) w = r_.i64();
      else w = r_.f64();
      x = static_cast<T>(w);
    }
  }
  template <std::size_t N>
  void bytes(std::array<std::uint8_t, N>& b) {
    r_.bytes(b);
  }
  template <class Fn>
  void section(std::string_view tag, Fn&& fn) {
    r_.open_section(tag);
    fn();
    r_.close_section();
  }
  void require(bool cond, const char* what) {
    if (!cond) throw SnapshotError(what);
  }
  // Unread bytes of the open section: an upper bound on any element count.
  std::uint64_t remaining() const { return r_.remaining(); }

 private:
  ArchiveReader& r_;
};

class Digester {
 public:
  static constexpr bool kLoading = false;

  explicit Digester(Digest& d) : d_(d) {}
  Digest& digest() { return d_; }

  template <class T>
  void operator()(const T& x) {
    if constexpr (std::is_class_v<T>) {
      T::visit(*this, x);
    } else {
      using W = detail::wire_t<T>;
      const W w = static_cast<W>(x);
      if constexpr (std::is_same_v<W, double>) d_.mix(std::bit_cast<std::uint64_t>(w));
      else d_.mix(static_cast<std::uint64_t>(w));
    }
  }
  // Mixed as little-endian 64-bit words (a zero-padded tail word if any).
  template <std::size_t N>
  void bytes(const std::array<std::uint8_t, N>& b) {
    for (std::size_t i = 0; i < N; i += 8) {
      std::uint64_t word = 0;
      for (std::size_t j = i; j < std::min(N, i + 8); ++j) {
        word |= static_cast<std::uint64_t>(b[j]) << (8 * (j - i));
      }
      d_.mix(word);
    }
  }
  template <class Fn>
  void section(std::string_view, Fn&& fn) {
    fn();
  }
  void require(bool, const char*) {}

 private:
  Digest& d_;
};

// --- Field helpers -------------------------------------------------------

// A field archived in wire type W rather than its own type's encoding
// (an `int`, or a narrower wire width). Written back when S is mutable.
template <class W, class V, class T>
void as(V& v, T& field) {
  W w = static_cast<W>(field);
  v(w);
  if constexpr (!std::is_const_v<T>) field = static_cast<std::remove_cv_t<T>>(w);
}

// A relaxed atomic counter, archived as its value.
template <class V, class A>
void relaxed(V& v, A& counter) {
  auto x = counter.load(std::memory_order_relaxed);
  v(x);
  if constexpr (!std::is_const_v<A>) counter.store(x, std::memory_order_relaxed);
}

// --- Container walks -----------------------------------------------------

namespace detail {
template <class V>
std::uint64_t read_count(V& v) {
  std::uint64_t n = 0;
  v(n);
  v.require(n <= v.remaining(), "archived element count exceeds its section");
  return n;
}
}  // namespace detail

// Size-prefixed sequence (vector or deque): u64 count, then each element.
template <class V, class C, class Fn>
void seq(V& v, C& c, Fn&& fn) {
  if constexpr (V::kLoading) {
    c.clear();
    c.resize(detail::read_count(v));
  } else {
    const std::uint64_t n = c.size();
    v(n);
  }
  for (auto& e : c) fn(e);
}
template <class V, class C>
void seq(V& v, C& c) {
  seq(v, c, [&v](auto& e) { v(e); });
}

// Size-prefixed sequence whose length the configuration fixes (per node,
// per link, per tenant, ...): a loaded archive must carry exactly the
// length `c` already has.
template <class V, class C, class Fn>
void fixed(V& v, C& c, const char* mismatch, Fn&& fn) {
  std::uint64_t n = c.size();
  if constexpr (V::kLoading) {
    v(n);
    v.require(n == c.size(), mismatch);
  } else {
    const std::uint64_t size = n;
    v(size);
  }
  for (auto& e : c) fn(e);
}
template <class V, class C>
void fixed(V& v, C& c, const char* mismatch) {
  fixed(v, c, mismatch, [&v](auto& e) { v(e); });
}

// Hash or tree map, walked in ascending key order so the bytes never
// depend on a hash map's insertion history: u64 count, then (key, value)
// per entry. A loaded archive may not repeat a key; each loaded value
// starts as `make()`.
template <class V, class M, class Fn, class Make>
void sorted_map(V& v, M& m, const char* duplicate, Fn&& fn, Make&& make) {
  if constexpr (V::kLoading) {
    const std::uint64_t n = detail::read_count(v);
    m.clear();
    if constexpr (requires { m.reserve(n); }) m.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      typename M::key_type key{};
      v(key);
      typename M::mapped_type value = make();
      fn(key, value);
      v.require(m.emplace(key, std::move(value)).second, duplicate);
    }
  } else {
    const std::uint64_t n = m.size();
    v(n);
    if constexpr (requires { typename M::key_compare; }) {
      for (auto& entry : m) {
        v(entry.first);
        fn(entry.first, entry.second);
      }
    } else {
      std::vector<decltype(&*m.begin())> entries;
      entries.reserve(m.size());
      for (auto& entry : m) entries.push_back(&entry);
      std::sort(entries.begin(), entries.end(),
                [](const auto* a, const auto* b) { return a->first < b->first; });
      for (auto* entry : entries) {
        v(entry->first);
        fn(entry->first, entry->second);
      }
    }
  }
}
template <class V, class M, class Fn>
void sorted_map(V& v, M& m, const char* duplicate, Fn&& fn) {
  sorted_map(v, m, duplicate, std::forward<Fn>(fn), [] { return typename M::mapped_type{}; });
}
template <class V, class M>
void sorted_map(V& v, M& m, const char* duplicate) {
  sorted_map(v, m, duplicate, [&v](const auto&, auto& value) { v(value); });
}

// Fixed-size table archived sparsely: the count of entries for which
// `active` holds, then (u32 index, entry) per active entry. Loading resets
// every entry to its default first.
template <class V, class C, class Active>
void sparse(V& v, C& c, Active&& active, const char* out_of_range) {
  if constexpr (V::kLoading) {
    const std::uint64_t n = detail::read_count(v);
    std::fill(c.begin(), c.end(), typename C::value_type{});
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint32_t index = 0;
      v(index);
      v.require(index < c.size(), out_of_range);
      v(c[index]);
    }
  } else {
    const std::uint64_t n = static_cast<std::uint64_t>(std::count_if(c.begin(), c.end(), active));
    v(n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (!active(c[i])) continue;
      const auto index = static_cast<std::uint32_t>(i);
      v(index);
      v(c[i]);
    }
  }
}

// An optional owned object: a presence byte, then the object when present.
// Loading builds it with `make` before visiting it.
template <class V, class P, class Make>
void owned(V& v, P& ptr, Make&& make) {
  if constexpr (V::kLoading) {
    std::uint8_t present = 0;
    v(present);
    ptr = present != 0 ? make() : nullptr;
  } else {
    const std::uint8_t present = ptr != nullptr ? 1 : 0;
    v(present);
  }
  if (ptr) v(*ptr);
}

}  // namespace r2c2::snapshot
