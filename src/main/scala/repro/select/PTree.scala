package repro.select

import repro.util.Rand

/** A balanced binary search tree over (score, vertex) keys supporting the
  * two bulk operations Alg. 4 needs:
  *
  *  - `splitAndRemove(k)`: extract the k best keys;
  *  - `batchInsert(batch)`: insert a set of keys.
  *
  * This is our stand-in for PAM's P-tree [11, 13, 74]: a join-based treap
  * (same algorithmic family — join/split-structured balanced BSTs) with
  * subtree sizes for rank splits and O(n) construction from sorted input
  * (cartesian-tree build). Keys are ordered best-first (higher score,
  * then smaller id; the strict total order of [[Key]]), and heap
  * priorities are a hash of the vertex id, so the shape is deterministic.
  *
  * Trees are immutable; each round's split/insert returns a new root.
  */
object PTree {

  final class Node(val score: Long, val id: Int,
                   val left: Node, val right: Node) {
    val size: Int = 1 + PTree.size(left) + PTree.size(right)
    val prio: Long = Rand.mix64(id.toLong)
  }

  @inline def size(t: Node): Int = if (t == null) 0 else t.size

  /** key(a) before key(b) in the tree (a is better)? */
  @inline private def before(sa: Long, ia: Int, sb: Long, ib: Int): Boolean =
    Key.better(sa, ia, sb, ib)

  /** O(n) cartesian-tree build from ids sorted best-first. */
  def fromSorted(ids: Array[Int], score: Int => Long): Node = {
    // Rightmost-spine construction maintaining the max-heap on prio,
    // on a mutable mirror (rights are rewired as nodes arrive), frozen
    // into immutable Nodes at the end.
    case class M(var score: Long, var id: Int, var left: M, var right: M, var prio: Long)
    var top = -1
    val stack = new Array[M](ids.length)
    var i = 0
    var mroot: M = null
    while (i < ids.length) {
      val v = ids(i)
      val m = M(score(v), v, null, null, Rand.mix64(v.toLong))
      var last: M = null
      while (top >= 0 && stack(top).prio < m.prio) { last = stack(top); top -= 1 }
      m.left = last
      if (top >= 0) stack(top).right = m else mroot = m
      top += 1; stack(top) = m
      i += 1
    }
    // Freeze into immutable nodes.
    def freeze(m: M): Node =
      if (m == null) null else new Node(m.score, m.id, freeze(m.left), freeze(m.right))
    freeze(mroot)
  }

  def build(n: Int, score: Int => Long): Node = {
    val ids = Array.tabulate(n)(identity)
    val sorted = ids.sortWith((a, b) => before(score(a), a, score(b), b))
    fromSorted(sorted, score)
  }

  /** Split off the k best keys: returns (their ids best-first, remaining tree). */
  def splitAndRemove(t: Node, k: Int): (Array[Int], Node) = {
    val kk = math.min(k, size(t))
    val out = new Array[Int](kk)
    var outPos = 0
    def collect(x: Node): Unit =
      if (x != null) { collect(x.left); out(outPos) = x.id; outPos += 1; collect(x.right) }
    def go(x: Node, need: Int): Node = {
      if (need == 0) return x
      if (x == null) return null
      val ls = size(x.left)
      if (need <= ls) {
        val rest = go(x.left, need)
        join(rest, new Node(x.score, x.id, null, null), x.right)
      } else {
        collect(x.left)
        out(outPos) = x.id; outPos += 1
        go(x.right, need - ls - 1)
      }
    }
    val rest = go(t, kk)
    require(outPos == kk, s"splitAndRemove extracted $outPos != $kk")
    (out, rest)
  }

  /** join(l, m, r): all keys in l before m before r; treap-join by priority. */
  private def join(l: Node, m: Node, r: Node): Node = {
    // m is a singleton carrier for (score, id).
    insertRoot(merge2(l, r), m.score, m.id)
  }

  /** Merge two treaps where every key of l precedes every key of r. */
  private def merge2(l: Node, r: Node): Node = {
    if (l == null) return r
    if (r == null) return l
    if (l.prio >= r.prio) new Node(l.score, l.id, l.left, merge2(l.right, r))
    else new Node(r.score, r.id, merge2(l, r.left), r.right)
  }

  /** Standard treap insert of a single key. */
  def insertRoot(t: Node, s: Long, id: Int): Node = {
    if (t == null) return new Node(s, id, null, null)
    val p = Rand.mix64(id.toLong)
    if (p > t.prio) {
      val (lo, hi) = splitByKey(t, s, id)
      new Node(s, id, lo, hi)
    } else if (before(s, id, t.score, t.id)) {
      new Node(t.score, t.id, insertRoot(t.left, s, id), t.right)
    } else {
      new Node(t.score, t.id, t.left, insertRoot(t.right, s, id))
    }
  }

  /** Split by key: (strictly better than (s,id), the rest). The key
    * itself is assumed absent (selectors never reinsert a live key).
    */
  private def splitByKey(t: Node, s: Long, id: Int): (Node, Node) = {
    if (t == null) return (null, null)
    if (before(t.score, t.id, s, id)) {
      val (lo, hi) = splitByKey(t.right, s, id)
      (new Node(t.score, t.id, t.left, lo), hi)
    } else {
      val (lo, hi) = splitByKey(t.left, s, id)
      (lo, new Node(t.score, t.id, hi, t.right))
    }
  }

  /** Insert a batch of (id, score) pairs. */
  def batchInsert(t: Node, ids: Array[Int], score: Int => Long): Node = {
    var cur = t
    var i = 0
    while (i < ids.length) { cur = insertRoot(cur, score(ids(i)), ids(i)); i += 1 }
    cur
  }

  /** The best key's id (the paper's T.Max()), or -1 if empty. */
  def maxId(t: Node): Int = {
    if (t == null) return -1
    var x = t
    while (x.left != null) x = x.left
    x.id
  }

  def maxScore(t: Node): Long = {
    require(t != null, "maxScore of empty tree")
    var x = t
    while (x.left != null) x = x.left
    x.score
  }

  /** Structural byte estimate: object header + 2 refs + score + id + size + prio. */
  def bytes(t: Node): Long = 48L * size(t)
}
