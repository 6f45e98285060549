type stats = {
  hits : int;
  misses : int;
  invalidations : int;
}
