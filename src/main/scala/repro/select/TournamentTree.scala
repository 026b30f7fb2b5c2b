package repro.select

/** A tournament tree of vertex ids, ordered by [[Key.better]] on
  * (key(v), v) over a caller-owned key array: the one priority structure
  * of every greedy (CELF's Alg. 2, P-tree's Alg. 4, Win-Tree's Alg. 5 and
  * RIS max coverage). It starts with every id in 0 until key.length.
  *
  * A complete binary tree stored implicitly in `ids`, 2L-1 entries for
  * L = [[TournamentTree.leafCount]](n) leaves. Vertex v's leaf is L-1+v;
  * it holds v while v is in the tree and -1 otherwise, as do the padding
  * leaves. Each internal node holds the better id of its two children, so
  * the root holds the best. After key(v) changes, `update(v)` fixes v's
  * root path; `insert` and `remove` fix it too.
  *
  * Alg. 4's SplitTop(b) is b times `top` and `remove`, BatchInsert is
  * `insert`s and Max is `top`: O(log n) each, below the cost of one
  * Marginal. Win-Tree's FindMax walks `ids` itself and writes each node it
  * leaves with `betterChild`.
  */
final class TournamentTree(key: Array[Long]) {
  private[select] val ids: Array[Int] = TournamentTree.leafIds(key.length)
  private val leaves = (ids.length + 1) / 2
  private var live = key.length
  rebuild()

  /** Ids in the tree. */
  def size: Int = live

  /** Bytes of the ids array. */
  def bytes: Long = 4L * ids.length

  /** The best id; the tree must not be empty. */
  def top: Int = {
    require(live > 0, "top of an empty tree")
    ids(0)
  }

  /** Takes v, which must be in the tree, out of it. */
  def remove(v: Int): Unit = {
    val l = leaf(v)
    require(ids(l) == v, s"remove($v): not in the tree")
    ids(l) = -1
    live -= 1
    fixPath(l)
  }

  /** Puts v, which must be out of the tree, back in under key(v). */
  def insert(v: Int): Unit = {
    val l = leaf(v)
    require(ids(l) < 0, s"insert($v): already in the tree")
    ids(l) = v
    live += 1
    fixPath(l)
  }

  /** Reorders v, which must be in the tree, after key(v) changed. */
  def update(v: Int): Unit = {
    val l = leaf(v)
    require(ids(l) == v, s"update($v): not in the tree")
    fixPath(l)
  }

  /** Recomputes every internal node from the leaves up: O(n). */
  def rebuild(): Unit = {
    var t = leaves - 2
    while (t >= 0) { ids(t) = betterChild(t); t -= 1 }
  }

  /** The better id of internal node t's children, -1 if both are empty. */
  @inline def betterChild(t: Int): Int = {
    val l = ids(2 * t + 1); val r = ids(2 * t + 2)
    if (l < 0) r
    else if (r < 0) l
    else if (Key.better(key(l), l, key(r), r)) l
    else r
  }

  /** v's leaf; v must be a vertex id. */
  private def leaf(v: Int): Int = {
    require(v >= 0 && v < key.length, s"id $v outside [0, ${key.length})")
    leaves - 1 + v
  }

  /** Recomputes the internal nodes above node t. */
  private def fixPath(t0: Int): Unit = {
    var t = t0
    while (t > 0) { t = (t - 1) / 2; ids(t) = betterChild(t) }
  }
}

object TournamentTree {

  /** Largest population a tree holds: 2^29 leaves make 2^30 - 1 node ids,
    * and 2^30 leaves would exceed the JVM's array length limit.
    */
  private[select] val MaxVertices: Int = 1 << 29

  /** Leaves of the tree over n vertices: n rounded up to a power of two
    * (1 for n ≤ 1). Rejects n above [[MaxVertices]].
    */
  def leafCount(n: Int): Int = {
    require(n <= MaxVertices, s"a tournament tree holds at most $MaxVertices vertices, got n=$n")
    var leaves = 1
    while (leaves < n) leaves <<= 1
    leaves
  }

  /** The ids array of a tree over 0 until n with its leaves set: leaf v
    * holds v, padding leaves -1. Its loops run here rather than in the
    * constructor, where the JIT compiled them into code that made a whole
    * Win-Tree selection on a 120×120 lattice (R = 256, k = 100) ≈8% slower.
    */
  private def leafIds(n: Int): Array[Int] = {
    val leaves = leafCount(n)
    val ids = new Array[Int](2 * leaves - 1)
    java.util.Arrays.fill(ids, leaves - 1 + n, ids.length, -1)
    var v = 0
    while (v < n) { ids(leaves - 1 + v) = v; v += 1 }
    ids
  }
}
