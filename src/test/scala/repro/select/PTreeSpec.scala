package repro.select

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rand

class KeySpec extends AnyFunSuite {
  test("higher score wins") {
    assert(Key.better(2L, 5, 1L, 3))
    assert(!Key.better(1L, 3, 2L, 5))
  }
  test("ties break toward smaller id") {
    assert(Key.better(1L, 3, 1L, 5))
    assert(!Key.better(1L, 5, 1L, 3))
  }
  test("strict: a key never beats itself") {
    assert(!Key.better(1L, 3, 1L, 3))
  }
  test("total: exactly one of better(a,b), better(b,a) for distinct keys") {
    val rng = new Rand.Pcg(1)
    (1 to 2000).foreach { _ =>
      val s1 = rng.nextInt(5).toLong; val s2 = rng.nextInt(5).toLong
      val i1 = rng.nextInt(100); val i2 = rng.nextInt(100)
      if ((s1, i1) != (s2, i2))
        assert(Key.better(s1, i1, s2, i2) != Key.better(s2, i2, s1, i1))
    }
  }
}

class PTreeSpec extends AnyFunSuite {

  /** Reference ordering: best-first (score desc, id asc). */
  private def refSort(ids: Seq[Int], score: Int => Long): Seq[Int] =
    ids.sortWith((a, b) => Key.better(score(a), a, score(b), b))

  /** In-order ids (best-first). */
  private def toList(t: PTree.Node): List[Int] = {
    val b = List.newBuilder[Int]
    def go(x: PTree.Node): Unit = if (x != null) { go(x.left); b += x.id; go(x.right) }
    go(t)
    b.result()
  }

  private def randomScores(n: Int, seed: Int, distinctVals: Int = 50): Array[Long] = {
    val rng = new Rand.Pcg(seed)
    Array.fill(n)(rng.nextInt(distinctVals).toLong) // deliberate ties
  }

  test("build produces the reference in-order sequence") {
    (1 to 10).foreach { s =>
      val n = 1 + s * 37
      val scores = randomScores(n, s)
      val t = PTree.build(n, scores(_))
      assert(PTree.size(t) == n)
      assert(toList(t) == refSort(0 until n, scores(_)).toList, s"seed $s")
    }
  }

  test("maxId and maxScore return the best key") {
    val scores = randomScores(500, 99)
    val t = PTree.build(500, scores(_))
    val best = refSort(0 until 500, scores(_)).head
    assert(PTree.maxId(t) == best)
    assert(PTree.maxScore(t) == scores(best))
  }

  test("splitAndRemove extracts the k best, in order, removing them") {
    val n = 300
    val scores = randomScores(n, 5)
    val ref = refSort(0 until n, scores(_))
    Seq(1, 2, 7, 64, 300).foreach { k =>
      val t = PTree.build(n, scores(_))
      val (top, rest) = PTree.splitAndRemove(t, k)
      assert(top.toSeq == ref.take(k))
      assert(toList(rest) == ref.drop(k).toList)
      assert(PTree.size(rest) == n - k)
    }
  }

  test("splitAndRemove beyond size empties the tree") {
    val scores = randomScores(10, 6)
    val t = PTree.build(10, scores(_))
    val (top, rest) = PTree.splitAndRemove(t, 50)
    assert(top.length == 10 && rest == null)
  }

  test("repeated splitAndRemove(1) drains best-first") {
    val n = 120
    val scores = randomScores(n, 7)
    var t = PTree.build(n, scores(_))
    val drained = (0 until n).map { _ =>
      val (a, rest) = PTree.splitAndRemove(t, 1)
      t = rest
      a(0)
    }
    assert(drained == refSort(0 until n, scores(_)))
  }

  test("batchInsert restores removed keys (possibly with new scores)") {
    val n = 200
    val scores = randomScores(n, 8)
    var t = PTree.build(n, scores(_))
    val (batch, rest) = PTree.splitAndRemove(t, 40)
    t = rest
    // Lower the scores (as re-evaluation does) and reinsert.
    batch.foreach(v => scores(v) = scores(v) / 2)
    t = PTree.batchInsert(t, batch, scores(_))
    assert(PTree.size(t) == n)
    assert(toList(t) == refSort(0 until n, scores(_)).toList)
  }

  test("interleaved split/insert keeps the reference order (fuzz)") {
    val n = 150
    val scores = randomScores(n, 9)
    var live = (0 until n).toSet
    var t = PTree.build(n, scores(_))
    val rng = new Rand.Pcg(10)
    (1 to 60).foreach { _ =>
      val k = 1 + rng.nextInt(20)
      val (batch, rest) = PTree.splitAndRemove(t, k)
      t = rest
      batch.foreach { v => scores(v) = math.max(0, scores(v) - rng.nextInt(3)) }
      // Keep one out (as seed selection does), reinsert the others.
      val keepOut = batch(rng.nextInt(batch.length))
      live -= keepOut
      t = PTree.batchInsert(t, batch.filter(_ != keepOut), scores(_))
      assert(PTree.size(t) == live.size)
      assert(toList(t) == refSort(live.toSeq, scores(_)).toList)
    }
  }

  test("treap shape is deterministic (priorities from ids)") {
    val scores = randomScores(80, 11)
    val a = PTree.build(80, scores(_))
    val b = PTree.build(80, scores(_))
    def shape(t: PTree.Node): String =
      if (t == null) "." else s"(${t.id}${shape(t.left)}${shape(t.right)})"
    assert(shape(a) == shape(b))
  }

  test("heap property on priorities holds after operations") {
    val n = 100
    val scores = randomScores(n, 12)
    var t = PTree.build(n, scores(_))
    val (batch, rest) = PTree.splitAndRemove(t, 30)
    t = PTree.batchInsert(rest, batch, scores(_))
    def check(x: PTree.Node): Unit = if (x != null) {
      if (x.left != null) assert(x.prio >= x.left.prio)
      if (x.right != null) assert(x.prio >= x.right.prio)
      check(x.left); check(x.right)
    }
    check(t)
  }

  test("bytes scale with size") {
    val scores = randomScores(64, 13)
    val t = PTree.build(64, scores(_))
    assert(PTree.bytes(t) == 48L * 64)
  }
}
