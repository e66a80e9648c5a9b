/**
 * @file
 * A lazy, recursive C++20 coroutine generator.
 *
 * A coroutine returning Generator<T> produces its elements with
 * `co_yield value`, and splices in every element of another
 * generator with `co_yield std::move(sub)` (or a call that returns
 * one). Nothing runs until the consumer first asks for an element.
 *
 * Elements go straight into a vector the consumer supplies: next()
 * resumes the innermost running generator to refill a batch of
 * kBatch elements and hands them out one by one, and drainInto()
 * runs the generator to its end in one resume. A yield suspends only
 * when the batch is full, so neither nesting nor the resume costs
 * anything per element, and no element is read back right after it
 * was written (a 32-byte MemOp copied out of the coroutine frame per
 * element stalled on store forwarding at about 35 ns each).
 *
 * Lifetime rule: a coroutine copies its parameters into its frame,
 * but a reference parameter stays a reference. Pass everything a
 * generator reads after its first suspension by value (or as a
 * shared_ptr<const>), except objects the caller guarantees outlive
 * the generator (DESIGN.md section 4l).
 */

#ifndef RCNVM_UTIL_GENERATOR_HH_
#define RCNVM_UTIL_GENERATOR_HH_

#include <coroutine>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace rcnvm::util {

template <class T>
class Generator
{
  public:
    /** Elements next() produces per resume. */
    static constexpr std::size_t kBatch = 64;

    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct promise_type {
        /** The outermost generator's promise; the consumer's view. */
        promise_type *root = this;
        /** Root only: the generator the next resume continues. */
        Handle leaf;
        /** Nested only: resumed when this generator finishes. */
        Handle parent;
        /** Root only, set before each resume: where elements go,
         *  and the size at which the generator suspends. */
        std::vector<T> *sink = nullptr;
        std::size_t limit = 0;

        Generator
        get_return_object() noexcept
        {
            leaf = Handle::from_promise(*this);
            return Generator(leaf);
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        /** A finished nested generator hands control back to its
         *  parent without returning to the consumer. */
        struct FinalAwaiter {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(Handle h) noexcept
            {
                promise_type &p = h.promise();
                if (!p.parent)
                    return std::noop_coroutine();
                p.root->leaf = p.parent;
                return p.parent;
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }

        /** Suspends only once the sink holds `limit` elements. */
        struct YieldAwaiter {
            bool room;

            bool await_ready() noexcept { return room; }
            void await_suspend(std::coroutine_handle<>) noexcept {}
            void await_resume() noexcept {}
        };

        YieldAwaiter
        yield_value(T value)
        {
            std::vector<T> &out = *root->sink;
            out.push_back(std::move(value));
            return YieldAwaiter{out.size() < root->limit};
        }

        /** `co_yield sub`: run @p sub to completion in place. */
        struct NestedAwaiter {
            Generator sub;

            bool await_ready() noexcept { return !sub.h_; }

            std::coroutine_handle<>
            await_suspend(Handle h) noexcept
            {
                promise_type &sp = sub.h_.promise();
                sp.root = h.promise().root;
                sp.parent = h;
                sp.root->leaf = sub.h_;
                return sub.h_;
            }

            void await_resume() noexcept {}
        };

        NestedAwaiter
        yield_value(Generator &&sub) noexcept
        {
            return NestedAwaiter{std::move(sub)};
        }

        void return_void() noexcept {}
        void unhandled_exception() { throw; }
    };

    Generator() = default;

    Generator(Generator &&o) noexcept
        : h_(std::exchange(o.h_, {})), batch_(std::move(o.batch_)),
          pos_(std::exchange(o.pos_, 0))
    {
        o.batch_.clear();
    }

    Generator &
    operator=(Generator &&o) noexcept
    {
        if (this != &o) {
            reset();
            h_ = std::exchange(o.h_, {});
            batch_ = std::move(o.batch_);
            o.batch_.clear();
            pos_ = std::exchange(o.pos_, 0);
        }
        return *this;
    }

    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    ~Generator() { reset(); }

    /**
     * Produce the next element: a pointer that stays valid until the
     * following next(), or nullptr once the generator (and every
     * generator it spliced in) has finished.
     */
    const T *
    next()
    {
        if (pos_ == batch_.size()) {
            batch_.clear();
            pos_ = 0;
            run(batch_, kBatch);
            // A resume that produced nothing ran to the end.
            if (batch_.empty())
                return nullptr;
        }
        return &batch_[pos_++];
    }

    /** Append every element not yet produced to @p out. */
    void
    drainInto(std::vector<T> &out)
    {
        out.insert(out.end(), batch_.begin() + static_cast<long>(pos_),
                   batch_.end());
        batch_.clear();
        pos_ = 0;
        run(out, std::numeric_limits<std::size_t>::max());
    }

  private:
    explicit Generator(Handle h) : h_(h) {}

    /** Resume into @p sink until it holds @p limit elements or the
     *  generator ends. */
    void
    run(std::vector<T> &sink, std::size_t limit)
    {
        if (!h_ || h_.done())
            return;
        promise_type &root = h_.promise();
        root.sink = &sink;
        root.limit = limit;
        root.leaf.resume();
    }

    void
    reset()
    {
        if (h_)
            h_.destroy();
        h_ = {};
    }

    Handle h_;
    std::vector<T> batch_; //!< elements of the last resume
    std::size_t pos_ = 0;  //!< next element of batch_ to hand out
};

} // namespace rcnvm::util

#endif // RCNVM_UTIL_GENERATOR_HH_
