#ifndef MOST_INDEX_RTREE_H_
#define MOST_INDEX_RTREE_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.h"

namespace most {

/// Axis-aligned box in D dimensions (closed on all sides).
template <int D>
struct RTreeBox {
  std::array<double, D> min;
  std::array<double, D> max;

  static RTreeBox Empty() {
    RTreeBox b;
    b.min.fill(std::numeric_limits<double>::infinity());
    b.max.fill(-std::numeric_limits<double>::infinity());
    return b;
  }

  bool Intersects(const RTreeBox& o) const {
    for (int d = 0; d < D; ++d) {
      if (min[d] > o.max[d] || o.min[d] > max[d]) return false;
    }
    return true;
  }

  bool ContainsBox(const RTreeBox& o) const {
    for (int d = 0; d < D; ++d) {
      if (o.min[d] < min[d] || o.max[d] > max[d]) return false;
    }
    return true;
  }

  void ExpandToInclude(const RTreeBox& o) {
    for (int d = 0; d < D; ++d) {
      min[d] = std::min(min[d], o.min[d]);
      max[d] = std::max(max[d], o.max[d]);
    }
  }

  double Volume() const {
    double v = 1.0;
    for (int d = 0; d < D; ++d) v *= std::max(0.0, max[d] - min[d]);
    return v;
  }

  /// Volume increase if this box grew to include o.
  double Enlargement(const RTreeBox& o) const {
    RTreeBox grown = *this;
    grown.ExpandToInclude(o);
    return grown.Volume() - Volume();
  }

  bool operator==(const RTreeBox& o) const {
    return min == o.min && max == o.max;
  }
};

/// Guttman R-tree with quadratic split (the "spatial access method" the
/// paper cites from Samet's survey [9] as the substrate for indexing
/// dynamic-attribute trajectories). Stores (box, payload) entries; payloads
/// are opaque 64-bit ids. Supports deletion with tree condensation so
/// motion-vector updates can remove an object's old trajectory segments.
template <int D, typename Payload = uint64_t>
class RTree {
 public:
  using Box = RTreeBox<D>;

  explicit RTree(size_t max_entries = 16)
      : max_entries_(std::max<size_t>(4, max_entries)),
        min_entries_(std::max<size_t>(2, max_entries_ * 2 / 5)) {
    root_ = std::make_unique<Node>(/*leaf=*/true);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Insert(const Box& box, Payload payload) {
    InsertEntry(Entry{box, payload, nullptr}, /*target_level=*/0);
    ++size_;
  }

  /// Replaces the tree's contents with the given entries, packed with the
  /// Sort-Tile-Recursive algorithm. Much faster than repeated Insert and
  /// produces better-clustered nodes; used by the periodic horizon
  /// rebuilds of the trajectory index.
  void BulkLoad(std::vector<std::pair<Box, Payload>> entries) {
    size_ = entries.size();
    if (entries.empty()) {
      root_ = std::make_unique<Node>(/*leaf=*/true);
      return;
    }
    // Build the leaf level.
    std::vector<std::unique_ptr<Node>> level;
    {
      std::vector<Entry> leaf_entries;
      leaf_entries.reserve(entries.size());
      for (auto& [box, payload] : entries) {
        leaf_entries.push_back(Entry{box, std::move(payload), nullptr});
      }
      level = PackLevel(std::move(leaf_entries), /*leaf=*/true);
    }
    // Stack levels until one root remains.
    while (level.size() > 1) {
      std::vector<Entry> parent_entries;
      parent_entries.reserve(level.size());
      for (auto& node : level) {
        Box cover = node->Cover();
        parent_entries.push_back(Entry{cover, Payload{}, std::move(node)});
      }
      level = PackLevel(std::move(parent_entries), /*leaf=*/false);
    }
    root_ = std::move(level.front());
  }

  /// Removes one (box, payload) entry; returns false if not present.
  bool Remove(const Box& box, Payload payload) {
    std::vector<Entry> orphans;
    bool found = RemoveRec(root_.get(), box, payload, &orphans);
    if (!found) return false;
    --size_;
    // Root with a single internal child shrinks.
    while (!root_->leaf && root_->children.size() == 1) {
      auto child = std::move(root_->children.front().child);
      root_ = std::move(child);
    }
    if (!root_->leaf && root_->children.empty()) {
      root_ = std::make_unique<Node>(/*leaf=*/true);
    }
    // Reinsert entries orphaned by condensation at leaf level. Index-based
    // loop: CollectLeafEntries may append while we iterate.
    for (size_t i = 0; i < orphans.size(); ++i) {
      if (orphans[i].child == nullptr) {
        InsertEntry(std::move(orphans[i]), 0);
      } else {
        auto subtree = std::move(orphans[i].child);
        CollectLeafEntries(subtree.get(), &orphans);
      }
    }
    return true;
  }

  /// Visits payloads of all entries whose boxes intersect `query`.
  void Search(const Box& query,
              const std::function<void(const Box&, const Payload&)>& fn) const {
    SearchRec(root_.get(), query, fn);
  }

  /// Number of nodes visited by the last Search (diagnostics for the
  /// logarithmic-access claim).
  mutable size_t last_search_nodes = 0;

  int height() const {
    int h = 1;
    const Node* n = root_.get();
    while (!n->leaf) {
      n = n->children.front().child.get();
      ++h;
    }
    return h;
  }

 private:
  struct Node;
  struct Entry {
    Box box;
    Payload payload{};              // Valid for leaf entries.
    std::unique_ptr<Node> child;    // Valid for internal entries.
  };
  struct Node {
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
    bool leaf;
    std::vector<Entry> children;

    Box Cover() const {
      Box b = Box::Empty();
      for (const Entry& e : children) b.ExpandToInclude(e.box);
      return b;
    }
  };

  void SearchRec(const Node* node, const Box& query,
                 const std::function<void(const Box&, const Payload&)>& fn)
      const {
    ++last_search_nodes;
    for (const Entry& e : node->children) {
      if (!e.box.Intersects(query)) continue;
      if (node->leaf) {
        fn(e.box, e.payload);
      } else {
        SearchRec(e.child.get(), query, fn);
      }
    }
  }

  void CollectLeafEntries(Node* node, std::vector<Entry>* out) {
    for (Entry& e : node->children) {
      if (node->leaf) {
        out->push_back(std::move(e));
      } else {
        CollectLeafEntries(e.child.get(), out);
      }
    }
    node->children.clear();
  }

  // Inserts an entry at the given level (0 = leaf). Splits propagate up.
  void InsertEntry(Entry entry, int target_level) {
    std::vector<Node*> path;
    Node* node = root_.get();
    int level_from_leaf = Height(node) - 1;
    while (level_from_leaf > target_level) {
      path.push_back(node);
      node = ChooseSubtree(node, entry.box);
      --level_from_leaf;
    }
    node->children.push_back(std::move(entry));
    Node* overflowed = node->children.size() > max_entries_ ? node : nullptr;
    // Split bottom-up along the descent path.
    while (overflowed != nullptr) {
      std::unique_ptr<Node> sibling = QuadraticSplit(overflowed);
      if (path.empty()) {
        // Split the root: grow a new root above.
        auto new_root = std::make_unique<Node>(/*leaf=*/false);
        auto old_root = std::move(root_);
        Box left_cover = old_root->Cover();
        Box right_cover = sibling->Cover();
        new_root->children.push_back(
            Entry{left_cover, Payload{}, std::move(old_root)});
        new_root->children.push_back(
            Entry{right_cover, Payload{}, std::move(sibling)});
        root_ = std::move(new_root);
        overflowed = nullptr;
      } else {
        Node* parent = path.back();
        path.pop_back();
        // Refresh the split node's cover and add the sibling.
        for (Entry& e : parent->children) {
          if (e.child.get() == overflowed) {
            e.box = overflowed->Cover();
            break;
          }
        }
        Box cover = sibling->Cover();
        parent->children.push_back(Entry{cover, Payload{}, std::move(sibling)});
        overflowed = parent->children.size() > max_entries_ ? parent : nullptr;
        if (overflowed == nullptr) {
          // Tighten covers up the remaining path.
          TightenPath(path, parent);
        }
      }
    }
    if (overflowed == nullptr) {
      TightenPath(path, node);
    }
  }

  void TightenPath(const std::vector<Node*>& path, Node* changed) {
    // Walk the recorded path from deepest to root updating covers.
    Node* child = changed;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      for (Entry& e : (*it)->children) {
        if (e.child.get() == child) {
          e.box = child->Cover();
          break;
        }
      }
      child = *it;
    }
  }

  // Sort-Tile-Recursive packing of one tree level: sort by x-center, cut
  // into vertical slabs, sort each slab by y-center, fill nodes of
  // max_entries_ each.
  std::vector<std::unique_ptr<Node>> PackLevel(std::vector<Entry> entries,
                                               bool leaf) {
    auto center = [](const Entry& e, int dim) {
      return (e.box.min[dim] + e.box.max[dim]) / 2.0;
    };
    const size_t per_node = max_entries_;
    const size_t node_count = (entries.size() + per_node - 1) / per_node;
    const size_t slab_count = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(node_count))));
    const size_t per_slab =
        ((node_count + slab_count - 1) / slab_count) * per_node;

    std::sort(entries.begin(), entries.end(),
              [&](const Entry& a, const Entry& b) {
                return center(a, 0) < center(b, 0);
              });
    std::vector<std::unique_ptr<Node>> out;
    out.reserve(node_count);
    for (size_t slab_begin = 0; slab_begin < entries.size();
         slab_begin += per_slab) {
      size_t slab_end = std::min(entries.size(), slab_begin + per_slab);
      std::sort(entries.begin() + slab_begin, entries.begin() + slab_end,
                [&](const Entry& a, const Entry& b) {
                  return center(a, D > 1 ? 1 : 0) <
                         center(b, D > 1 ? 1 : 0);
                });
      for (size_t i = slab_begin; i < slab_end; i += per_node) {
        auto node = std::make_unique<Node>(leaf);
        size_t end = std::min(slab_end, i + per_node);
        for (size_t j = i; j < end; ++j) {
          node->children.push_back(std::move(entries[j]));
        }
        out.push_back(std::move(node));
      }
    }
    return out;
  }

  static int Height(const Node* node) {
    int h = 1;
    while (!node->leaf) {
      node = node->children.front().child.get();
      ++h;
    }
    return h;
  }

  Node* ChooseSubtree(Node* node, const Box& box) {
    Node* best = nullptr;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_volume = std::numeric_limits<double>::infinity();
    Entry* best_entry = nullptr;
    for (Entry& e : node->children) {
      double enlargement = e.box.Enlargement(box);
      double volume = e.box.Volume();
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && volume < best_volume)) {
        best_enlargement = enlargement;
        best_volume = volume;
        best = e.child.get();
        best_entry = &e;
      }
    }
    MOST_CHECK(best != nullptr);
    best_entry->box.ExpandToInclude(box);
    return best;
  }

  // Guttman quadratic split: picks the pair wasting the most area as
  // seeds, then assigns remaining entries by enlargement preference.
  std::unique_ptr<Node> QuadraticSplit(Node* node) {
    std::vector<Entry> entries = std::move(node->children);
    node->children.clear();
    auto sibling = std::make_unique<Node>(node->leaf);

    // Seed selection.
    size_t seed_a = 0, seed_b = 1;
    double worst = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < entries.size(); ++i) {
      for (size_t j = i + 1; j < entries.size(); ++j) {
        Box combined = entries[i].box;
        combined.ExpandToInclude(entries[j].box);
        double waste = combined.Volume() - entries[i].box.Volume() -
                       entries[j].box.Volume();
        if (waste > worst) {
          worst = waste;
          seed_a = i;
          seed_b = j;
        }
      }
    }
    Box cover_a = entries[seed_a].box;
    Box cover_b = entries[seed_b].box;
    node->children.push_back(std::move(entries[seed_a]));
    sibling->children.push_back(std::move(entries[seed_b]));

    for (size_t i = 0; i < entries.size(); ++i) {
      if (i == seed_a || i == seed_b) continue;
      Entry& e = entries[i];
      size_t remaining = 0;
      for (size_t j = i; j < entries.size(); ++j) {
        if (j != seed_a && j != seed_b) ++remaining;
      }
      // Force assignment if one group must take all remaining entries to
      // reach the minimum fill.
      if (node->children.size() + remaining <= min_entries_) {
        cover_a.ExpandToInclude(e.box);
        node->children.push_back(std::move(e));
        continue;
      }
      if (sibling->children.size() + remaining <= min_entries_) {
        cover_b.ExpandToInclude(e.box);
        sibling->children.push_back(std::move(e));
        continue;
      }
      double grow_a = cover_a.Enlargement(e.box);
      double grow_b = cover_b.Enlargement(e.box);
      bool to_a = grow_a < grow_b ||
                  (grow_a == grow_b && cover_a.Volume() <= cover_b.Volume());
      if (to_a) {
        cover_a.ExpandToInclude(e.box);
        node->children.push_back(std::move(e));
      } else {
        cover_b.ExpandToInclude(e.box);
        sibling->children.push_back(std::move(e));
      }
    }
    return sibling;
  }

  // Depth-first removal; condenses underfull nodes into `orphans`.
  bool RemoveRec(Node* node, const Box& box, const Payload& payload,
                 std::vector<Entry>* orphans) {
    if (node->leaf) {
      for (size_t i = 0; i < node->children.size(); ++i) {
        if (node->children[i].payload == payload &&
            node->children[i].box == box) {
          node->children.erase(node->children.begin() + i);
          return true;
        }
      }
      return false;
    }
    for (size_t i = 0; i < node->children.size(); ++i) {
      Entry& e = node->children[i];
      // A parent box covers every entry below it, so only a child whose
      // box contains the removed box can hold it. Merely intersecting is
      // far weaker: boxes that share a boundary (time slabs) intersect.
      if (!e.box.ContainsBox(box)) continue;
      if (RemoveRec(e.child.get(), box, payload, orphans)) {
        if (e.child->children.size() < min_entries_) {
          // Condense: orphan the whole child for reinsertion.
          Node* child = e.child.get();
          if (child->leaf) {
            for (Entry& ce : child->children) {
              orphans->push_back(std::move(ce));
            }
          } else {
            CollectLeafEntries(child, orphans);
          }
          node->children.erase(node->children.begin() + i);
        } else {
          e.box = e.child->Cover();
        }
        return true;
      }
    }
    return false;
  }

  std::unique_ptr<Node> root_;
  size_t max_entries_;
  size_t min_entries_;
  size_t size_ = 0;
};

}  // namespace most

#endif  // MOST_INDEX_RTREE_H_
