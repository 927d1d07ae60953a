#include "profiler.h"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <sstream>

#include "common/json.h"
#include "common/table.h"

namespace carbonx::obs
{

/**
 * One call-tree node owned by a single thread. Fields are plain (not
 * atomic): only the owning thread writes them, and merged()/reset()
 * run only at quiescence, after a synchronization point (parallelFor
 * join) ordered the writes.
 */
struct PhaseProfiler::Node
{
    const char *name = nullptr;
    Node *parent = nullptr;
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t min_ns = 0;
    uint64_t max_ns = 0;
    std::vector<std::unique_ptr<Node>> children;

    Node *childFor(const char *child_name)
    {
        for (const auto &c : children) {
            // Literals usually dedupe to one pointer per TU; fall
            // back to strcmp for the same name from different TUs.
            if (c->name == child_name ||
                std::strcmp(c->name, child_name) == 0)
                return c.get();
        }
        children.push_back(std::make_unique<Node>());
        Node *child = children.back().get();
        child->name = child_name;
        child->parent = this;
        return child;
    }
};

/** Per-thread tree: a synthetic root plus the open-phase cursor. */
struct PhaseProfiler::ThreadTree
{
    Node root;
    Node *current = &root;

    ThreadTree() { root.name = "root"; }
};

namespace
{

thread_local PhaseProfiler::ThreadTree *t_tree = nullptr;

void
zeroTree(PhaseProfiler::Node &node)
{
    node.count = 0;
    node.total_ns = 0;
    node.min_ns = 0;
    node.max_ns = 0;
    for (auto &child : node.children)
        zeroTree(*child);
}

ProfileNode *
mergedChildFor(ProfileNode &parent, const char *name)
{
    for (ProfileNode &c : parent.children) {
        if (c.name == name)
            return &c;
    }
    parent.children.push_back(ProfileNode{});
    parent.children.back().name = name;
    return &parent.children.back();
}

/** True when no phase anywhere in the subtree ever ran. */
bool
subtreeEmpty(const PhaseProfiler::Node &node)
{
    if (node.count > 0)
        return false;
    for (const auto &child : node.children) {
        if (!subtreeEmpty(*child))
            return false;
    }
    return true;
}

void
mergeInto(ProfileNode &dst, const PhaseProfiler::Node &src)
{
    if (src.count > 0) {
        if (dst.count == 0 || src.min_ns < dst.min_ns)
            dst.min_ns = src.min_ns;
        if (src.max_ns > dst.max_ns)
            dst.max_ns = src.max_ns;
    }
    dst.count += src.count;
    dst.total_ns += src.total_ns;
    for (const auto &child : src.children) {
        // reset() zeroes trees in place; a subtree that never ran
        // since (interior nodes included) must not reappear merged.
        if (subtreeEmpty(*child))
            continue;
        mergeInto(*mergedChildFor(dst, child->name), *child);
    }
}

/** Fill self_ns = total - sum(children.total), clamped at zero. */
void
computeSelf(ProfileNode &node)
{
    uint64_t child_total = 0;
    for (ProfileNode &c : node.children) {
        computeSelf(c);
        child_total += c.total_ns;
    }
    node.self_ns =
        node.total_ns > child_total ? node.total_ns - child_total : 0;
}

void
writeTextRows(TextTable &table, const ProfileNode &node, size_t depth)
{
    const std::string label(2 * depth, ' ');
    const double to_ms = 1e-6;
    table.addRow({label + node.name, std::to_string(node.count),
                  formatFixed(static_cast<double>(node.total_ns) * to_ms, 3),
                  formatFixed(static_cast<double>(node.self_ns) * to_ms, 3),
                  formatFixed(static_cast<double>(node.min_ns) * to_ms, 3),
                  formatFixed(static_cast<double>(node.max_ns) * to_ms, 3)});
    for (const ProfileNode &c : node.children)
        writeTextRows(table, c, depth + 1);
}

} // namespace

const ProfileNode *
ProfileNode::find(const std::string &child_name) const
{
    if (name == child_name)
        return this;
    for (const ProfileNode &c : children) {
        if (const ProfileNode *hit = c.find(child_name))
            return hit;
    }
    return nullptr;
}

PhaseProfiler &
PhaseProfiler::instance()
{
    // Leaked so phases in static destructors never touch a dead
    // registry (same lifetime trick as SpanTracer / MetricsRegistry).
    static PhaseProfiler *profiler = new PhaseProfiler();
    return *profiler;
}

PhaseProfiler::ThreadTree &
PhaseProfiler::threadTree()
{
    if (t_tree == nullptr) {
        auto tree = std::make_unique<ThreadTree>();
        t_tree = tree.get();
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        // Owned by the (leaked) profiler, so trees of exited threads
        // remain mergeable for the rest of the process.
        threads_.push_back(std::move(tree));
    }
    return *t_tree;
}

PhaseProfiler::Node *
PhaseProfiler::beginPhase(const char *name)
{
    ThreadTree &tree = threadTree();
    Node *node = tree.current->childFor(name);
    tree.current = node;
    return node;
}

void
PhaseProfiler::endPhase(Node *node, uint64_t elapsed_ns)
{
    if (node->count == 0 || elapsed_ns < node->min_ns)
        node->min_ns = elapsed_ns;
    if (elapsed_ns > node->max_ns)
        node->max_ns = elapsed_ns;
    ++node->count;
    node->total_ns += elapsed_ns;
    if (t_tree != nullptr && t_tree->current == node)
        t_tree->current = node->parent;
}

void
ScopedPhase::finish()
{
    const auto end = std::chrono::steady_clock::now();
    const auto elapsed = end - start_;
    if (node_ != nullptr)
        PhaseProfiler::instance().endPhase(
            node_,
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    elapsed)
                    .count()));
    if (traced_)
        SpanTracer::instance().record(name_, start_, end);
}

void
PhaseProfiler::reset()
{
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto &tree : threads_)
        zeroTree(tree->root);
}

ProfileNode
PhaseProfiler::merged() const
{
    ProfileNode root;
    root.name = "root";
    {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        for (const auto &tree : threads_)
            mergeInto(root, tree->root);
    }
    computeSelf(root);
    // The synthetic root never runs; its total is the sum of the
    // top-level phases so percentages have a denominator.
    root.total_ns = 0;
    for (const ProfileNode &c : root.children)
        root.total_ns += c.total_ns;
    root.self_ns = 0;
    return root;
}

size_t
PhaseProfiler::threadCount() const
{
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    size_t n = 0;
    for (const auto &tree : threads_) {
        if (tree->root.count > 0 || !tree->root.children.empty())
            ++n;
    }
    return n;
}

void
PhaseProfiler::writeText(std::ostream &os) const
{
    const ProfileNode root = merged();
    TextTable table("Phase profile (merged over " +
                        std::to_string(threadCount()) + " threads)",
                    {"Phase", "Count", "Total ms", "Self ms", "Min ms",
                     "Max ms"});
    for (const ProfileNode &c : root.children)
        writeTextRows(table, c, 0);
    table.print(os);
}

void
writeProfileJson(std::ostream &os, const ProfileNode &node,
                 const std::string &indent)
{
    os << "{\"name\": \"" << jsonEscapeString(node.name)
       << "\", \"count\": " << node.count
       << ", \"total_ns\": " << node.total_ns
       << ", \"self_ns\": " << node.self_ns
       << ", \"min_ns\": " << node.min_ns
       << ", \"max_ns\": " << node.max_ns << ", \"children\": [";
    const std::string deeper = indent + "  ";
    bool first = true;
    for (const ProfileNode &c : node.children) {
        os << (first ? "" : ",") << '\n' << deeper;
        writeProfileJson(os, c, deeper);
        first = false;
    }
    if (!first)
        os << '\n' << indent;
    os << "]}";
}

void
PhaseProfiler::writeJson(std::ostream &os) const
{
    writeProfileJson(os, merged(), "");
    os << '\n';
}

} // namespace carbonx::obs
