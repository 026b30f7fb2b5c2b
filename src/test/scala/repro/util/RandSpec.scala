package repro.util

import org.scalatest.funsuite.AnyFunSuite

class RandSpec extends AnyFunSuite {

  /** The one-key form of hash01, which the program does not use. */
  private def hash01(key: Long): Double = (Rand.mix64(key) >>> 11) * math.pow(2, -53)

  test("mix64 is deterministic") {
    assert(Rand.mix64(12345L) == Rand.mix64(12345L))
  }

  test("mix64 spreads nearby keys") {
    val a = Rand.mix64(1L); val b = Rand.mix64(2L)
    assert(a != b)
    assert(java.lang.Long.bitCount(a ^ b) > 10)
  }

  test("hash01 lies in [0, 1)") {
    val rng = new Rand.Pcg(1)
    (1 to 10000).foreach { _ =>
      val x = Rand.hash01(rng.nextLong(), rng.nextLong())
      assert(x >= 0.0 && x < 1.0)
    }
  }

  test("hash01 two-arg differs from one-arg") {
    assert(Rand.hash01(7L, 9L) != hash01(7L))
  }

  test("hash01 is approximately uniform") {
    val n = 100000
    val mean = (0 until n).map(i => Rand.hash01(i.toLong, 0x5eedL)).sum / n
    assert(math.abs(mean - 0.5) < 0.01, s"mean=$mean")
    val buckets = new Array[Int](10)
    (0 until n).foreach(i => buckets((Rand.hash01(i.toLong, 0x5eedL) * 10).toInt) += 1)
    buckets.foreach(b => assert(math.abs(b - n / 10) < n / 50))
  }

  test("edgeKey is symmetric and injective on canonical pairs") {
    val rng = new Rand.Pcg(2)
    (1 to 5000).foreach { _ =>
      val u = rng.nextInt(100000); val v = rng.nextInt(100000)
      assert(Rand.edgeKey(u, v) == Rand.edgeKey(v, u))
    }
    assert(Rand.edgeKey(1, 2) != Rand.edgeKey(1, 3))
    assert(Rand.edgeKey(1, 2) != Rand.edgeKey(2, 3))
  }

  test("Pcg is deterministic per seed") {
    val a = new Rand.Pcg(5); val b = new Rand.Pcg(5)
    assert((1 to 100).map(_ => a.nextLong()) == (1 to 100).map(_ => b.nextLong()))
  }

  test("Pcg nextInt respects bounds") {
    val r = new Rand.Pcg(6)
    (1 to 1000).foreach { _ =>
      val x = r.nextInt(17)
      assert(x >= 0 && x < 17)
    }
  }

  test("Pcg nextGaussian has roughly unit variance") {
    val r = new Rand.Pcg(8)
    val xs = (1 to 20000).map(_ => r.nextGaussian())
    val mean = xs.sum / xs.size
    val varc = xs.map(x => (x - mean) * (x - mean)).sum / xs.size
    assert(math.abs(mean) < 0.05)
    assert(math.abs(varc - 1.0) < 0.1)
  }
}

class ParSpec extends AnyFunSuite {

  test("parFor covers every index exactly once") {
    val hits = new java.util.concurrent.atomic.AtomicIntegerArray(10000)
    Par.parFor(10000)(i => hits.incrementAndGet(i))
    (0 until 10000).foreach(i => assert(hits.get(i) == 1))
  }

  test("parTabulate matches sequential tabulate") {
    assert(Par.parTabulate(5000)(i => i * i).toSeq == (0 until 5000).map(i => i * i))
  }

  test("parRanges splits [0, n) into contiguous ranges and returns their results in order") {
    Seq((10, 3), (3, 3), (2, 5), (0, 4), (1000, 7)).foreach { case (n, pieces) =>
      val got = Par.parRanges(n, pieces)((lo, hi) => (lo, hi)).toSeq
      assert(got.length == pieces)
      assert(got.map(_._1) == (0 until pieces).map(Par.cut(n, pieces, _)), s"n=$n pieces=$pieces")
      assert(got.zip(got.tail).forall { case (a, b) => a._2 == b._1 } && got.last._2 == n)
      assert(got.map(r => r._2 - r._1).distinct.forall(d => d == n / pieces || d == n / pieces + 1))
    }
  }

  test("parFor with zero iterations is a no-op") {
    Par.parFor(0)(_ => fail("body must not run"))
  }

  test("Scratch visit/reset semantics") {
    val s = new Scratch(10)
    s.reset()
    assert(!s.visited(3))
    s.visit(3)
    assert(s.visited(3))
    s.reset()
    assert(!s.visited(3))
  }

  /** Runs `body` on a new thread, so its thread-local scratch starts empty. */
  private def onFreshThread(body: => Unit): Unit = {
    var err: Throwable = null
    val t = new Thread(() => try body catch { case e: Throwable => err = e })
    t.start(); t.join()
    if (err != null) throw err
  }

  test("Scratch rejects n outside [0, Int.MaxValue) before allocating, naming n") {
    for (n <- Seq(-1, Int.MinValue, Int.MaxValue)) {
      val e = intercept[IllegalArgumentException](new Scratch(n))
      assert(e.getMessage.contains(s"n=$n"), e.getMessage)
    }
    assert(new Scratch(0).n == 0)
  }

  test("Scratch.local is per-thread and per-size") {
    onFreshThread {
      val a = Scratch.local(100)
      val b = Scratch.local(100)
      val c = Scratch.local(200)
      assert(a eq b)
      assert(!(a eq c))
      var other: Scratch = null
      val t = new Thread(() => { other = Scratch.local(100) })
      t.start(); t.join()
      assert(!(a eq other))
    }
  }

  test("Scratch.local keeps one instance per common-pool worker across parallel loops") {
    // Common-pool workers erase their ThreadLocals between top-level tasks;
    // each task sleeps so that the workers take many of them.
    val seen = new java.util.concurrent.ConcurrentHashMap[Thread, java.util.Set[Scratch]]
    (1 to 5).foreach { _ =>
      Par.parFor(64) { _ =>
        seen.computeIfAbsent(Thread.currentThread(), _ => java.util.concurrent.ConcurrentHashMap.newKeySet[Scratch]())
          .add(Scratch.local(100))
        Thread.sleep(1)
      }
    }
    val perThread = seen.values.toArray(Array.empty[java.util.Set[Scratch]])
    assert(perThread.length > 1, "the loop ran on one thread")
    perThread.foreach(s => assert(s.size == 1, s"${s.size} scratch instances on one thread"))
    assert(perThread.map(_.iterator.next()).distinct.length == perThread.length)
  }

  test("Scratch.local reuses a larger instance for a smaller n") {
    onFreshThread {
      val big = Scratch.local(200)
      assert(Scratch.local(100) eq big)
      assert(Scratch.local(200) eq big)
      assert(big.n == 200)
    }
  }
}
