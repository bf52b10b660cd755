/**
 * @file
 * Field lists: each stats struct names its fields once, in a static
 * constexpr `fields()`, and the one merge and the one equality of the
 * struct read that list.
 *
 * An entry is a name, a member pointer and how two shards' (or cores')
 * values combine: Sum for event counters and accumulated times; Max
 * for depth peaks, pacer levels and RunResult::simTime, since a sum
 * would report a depth no single structure reached or double-count
 * time that parallel entities overlap; Keep (the left-hand value) for
 * labels and derived rates, which finalizeRunResult rebuilds. A field
 * whose type has its own list (LatencyBreakdown) is walked through it;
 * such nesting is one level deep. forEachField is the one walk, and
 * mergeFields and firstDifference are built on it.
 *
 * tests/test_scaleout.cc checks that each list tiles its struct, so a
 * field added without an entry fails there.
 */

#ifndef HAMS_SIM_FIELD_LIST_HH_
#define HAMS_SIM_FIELD_LIST_HH_

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>

namespace hams {

/** How two shards' values of one field combine. */
enum class Combine : std::uint8_t { Sum, Max, Keep };

/** One entry of a field list. */
template <class S, class T, Combine C>
struct Field
{
    using Type = T;
    static constexpr Combine combine = C;

    const char* name;
    T S::*member;
};

/** Entry builder: `field("hits", &HamsStats::hits)` sums. */
template <Combine C = Combine::Sum, class S, class T>
constexpr Field<S, T, C>
field(const char* name, T S::*member)
{
    return {name, member};
}

/** True when @p T has a field list. */
template <class T, class = void>
struct HasFieldList : std::false_type
{
};

template <class T>
struct HasFieldList<T, std::void_t<decltype(T::fields())>>
    : std::true_type
{
};

/** Where a leaf sits: @c name, plus @c inner inside a nested list.
 *  As firstDifference's result, empty means no field differs. */
struct FieldPath
{
    const char* name = nullptr;
    const char* inner = nullptr;

    explicit operator bool() const { return name != nullptr; }

    /** "name" or "name.inner". */
    std::string
    path() const
    {
        return std::string(name ? name : "") + (inner ? "." : "") +
               (inner ? inner : "");
    }
};

/**
 * The one walk over a field list: call
 * `visit(path, kind, leaf, restLeaf...)` for every listed leaf of @p s
 * in list order, stepping into nested lists. @p kind is a
 * `std::integral_constant<Combine, C>`; @p rest are further structs of
 * the same type, visited in step.
 */
template <class Visit, class S, class... Rest>
void
forEachField(Visit&& visit, S& s, Rest&... rest)
{
    auto one = [&](const auto& f) {
        using F = std::decay_t<decltype(f)>;
        if constexpr (HasFieldList<typename F::Type>::value) {
            static_assert(F::combine == Combine::Sum,
                          "a nested list combines through its own entries");
            forEachField(
                [&](FieldPath in, auto kind, auto&... leaf) {
                    visit(FieldPath{f.name, in.name}, kind, leaf...);
                },
                s.*f.member, rest.*f.member...);
        } else {
            visit(FieldPath{f.name, nullptr},
                  std::integral_constant<Combine, F::combine>{},
                  s.*f.member, rest.*f.member...);
        }
    };
    std::apply([&](const auto&... f) { (one(f), ...); },
               std::remove_const_t<S>::fields());
}

/** Combine @p from into @p into, field by field, as the list says. */
template <class S>
void
mergeFields(S& into, const S& from)
{
    forEachField(
        [](FieldPath, auto kind, auto& x, const auto& y) {
            if constexpr (decltype(kind)::value == Combine::Sum)
                x += y;
            else if constexpr (decltype(kind)::value == Combine::Max)
                x = std::max(x, y);
        },
        into, from);
}

/** The first listed field where @p a and @p b differ (operator==). */
template <class S>
FieldPath
firstDifference(const S& a, const S& b)
{
    FieldPath d;
    forEachField(
        [&](FieldPath at, auto, const auto& x, const auto& y) {
            if (!d && !(x == y))
                d = at;
        },
        a, b);
    return d;
}

} // namespace hams

#endif // HAMS_SIM_FIELD_LIST_HH_
