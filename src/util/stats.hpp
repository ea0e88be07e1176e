// One-declaration stats structs.
//
// A stats struct names its members once, in an X-macro list of
// X(type, name) entries, each after its /* doc comment */:
//
//   #define MEISSA_FOO_STATS(X) X(uint64_t, some_counter) X(bool, some_flag)
//
// and expands MEISSA_STATS_STRUCT(FooStats, MEISSA_FOO_STATS) in its body.
// That declares every member value-initialized (0, false, empty) and
// generates, in list order:
//   - for_each_field(f, s...): calls f("m", s.m...) for every member m of
//     the stats objects s... (the checkpoint put/get loops are such visits);
//   - operator+=: counters and times sum, flags are sticky-OR, vectors
//     append, nested stats merge recursively (merge_stat below).
// Adding a counter is one line in its list. Text and JSON rendering stay
// hand-written, so report keys and their order never move.
#pragma once

#include <vector>

namespace meissa::util {

template <class T>
void merge_stat(T& a, const T& b) {
  a += b;
}
inline void merge_stat(bool& a, bool b) { a = a || b; }
template <class T>
void merge_stat(std::vector<T>& a, const std::vector<T>& b) {
  a.insert(a.end(), b.begin(), b.end());
}

}  // namespace meissa::util

#define MEISSA_STATS_DECLARE_(type, name) type name{};
#define MEISSA_STATS_VISIT_(type, name) f(#name, s.name...);

#define MEISSA_STATS_STRUCT(Type, LIST)                                   \
  LIST(MEISSA_STATS_DECLARE_)                                             \
  template <class F, class... S>                                          \
  static void for_each_field(F&& f, S&... s) {                            \
    LIST(MEISSA_STATS_VISIT_)                                             \
  }                                                                       \
  Type& operator+=(const Type& o) {                                       \
    for_each_field(                                                       \
        [](const char*, auto& a, const auto& b) {                         \
          ::meissa::util::merge_stat(a, b);                               \
        },                                                                \
        *this, o);                                                        \
    return *this;                                                         \
  }
